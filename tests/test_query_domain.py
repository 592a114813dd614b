"""Query-domain errors: the integer domain the modeled DPUs compute on.

Queries are cast to integers as the DPUs see them: fractional values
truncate and negative values pass, as long as every LC operand
(query - centroid - codebook) stays within the square LUT's ±765.
Non-finite queries are rejected at the API boundary and out-of-range
operands at LC, both with :class:`QueryDomainError`, whatever the
``multiplier_less`` setting. Every accepted query returns distances
that are valid squared integer distances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterFrontend, build_cluster_index
from repro.core import (
    DrimAnnEngine,
    EngineConfig,
    LayoutConfig,
    QueryDomainError,
    SearchParams,
)
from repro.pim.config import PimSystemConfig

MAX_DISTANCE = 1 << 40


def _config(small_params, multiplier_less):
    return EngineConfig(
        index=small_params,
        search=SearchParams(batch_size=64, multiplier_less=multiplier_less),
        system=PimSystemConfig(num_dpus=16),
        layout=LayoutConfig(min_split_size=400, max_copies=2),
    )


@pytest.fixture(scope="module", params=[True, False], ids=["ml", "mul"])
def engine(request, small_ds, small_quantized, small_params):
    return DrimAnnEngine.from_config(
        small_ds.base,
        _config(small_params, request.param),
        prebuilt_quantized=small_quantized,
        seed=0,
    )


@pytest.fixture(scope="module", params=[True, False], ids=["ml", "mul"])
def frontend(request, small_ds, small_quantized, small_params):
    with build_cluster_index(
        small_ds.base,
        _config(small_params, request.param),
        ClusterConfig(num_shards=2, replication=1),
        prebuilt_quantized=small_quantized,
        seed=0,
    ) as cluster:
        yield ClusterFrontend(cluster, seed=0)


def _nan_queries(small_ds):
    q = small_ds.queries[:4].astype(np.float64)
    q[1, 7] = np.nan
    return q


def _shifted_queries(small_ds):
    """Real queries shifted by +600: LC operands pass +765."""
    return small_ds.queries[:4].astype(np.float64) + 600


def _assert_valid(ids, distances):
    valid = ids >= 0
    assert valid.any()
    d = distances[valid]
    assert (d >= 0).all() and (d < MAX_DISTANCE).all()


class TestEngineBoundary:
    def test_nan_query_raises(self, engine, small_ds):
        with pytest.raises(QueryDomainError, match="non-finite"):
            engine.search(_nan_queries(small_ds))

    def test_inf_query_raises(self, engine, small_ds):
        q = small_ds.queries[:2].astype(np.float32)
        q[0, 0] = -np.inf
        with pytest.raises(QueryDomainError, match="non-finite"):
            engine.search(q)

    def test_out_of_range_query_raises(self, engine, small_ds):
        with pytest.raises(QueryDomainError, match="±765"):
            engine.search(_shifted_queries(small_ds))

    def test_error_is_a_value_error(self):
        assert issubclass(QueryDomainError, ValueError)

    def test_add_rejects_non_finite(self, small_ds, small_quantized, small_params):
        engine = DrimAnnEngine.from_config(
            small_ds.base,
            _config(small_params, True),
            prebuilt_quantized=small_quantized,
            seed=0,
        )
        before = engine.quantized.cluster_sizes().sum()
        with pytest.raises(QueryDomainError, match="vectors"):
            engine.add(_nan_queries(small_ds))
        assert engine.quantized.cluster_sizes().sum() == before

    def test_cast_policy(self, engine, small_ds):
        """Fractions truncate; negatives pass within the operand range."""
        base = small_ds.queries[:4]
        want, _ = engine.search(base)
        frac, _ = engine.search(base.astype(np.float64) + 0.7)
        assert np.array_equal(frac.ids, want.ids)
        assert np.array_equal(frac.distances, want.distances)
        neg = base.astype(np.int64) - 100
        assert (neg < 0).any()
        res, _ = engine.search(neg)
        _assert_valid(res.ids, res.distances)


class TestFrontendBoundary:
    def test_nan_query_raises(self, frontend, small_ds):
        with pytest.raises(QueryDomainError, match="non-finite"):
            frontend.search(_nan_queries(small_ds))

    def test_out_of_range_query_raises(self, frontend, small_ds):
        with pytest.raises(QueryDomainError, match="±765"):
            frontend.search(_shifted_queries(small_ds))


class TestAcceptedDistances:
    # Finite values beyond the int32 range cast with a NumPy warning
    # and are then rejected by the operand check.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @settings(max_examples=25, deadline=None)
    @given(
        offset=st.integers(-800, 800),
        scale=st.sampled_from([0.5, 1.0, 2.0]),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf, 1e12]),
        as_float=st.booleans(),
    )
    def test_accepted_queries_have_sane_distances(
        self, engine, small_ds, offset, scale, special, as_float
    ):
        q = small_ds.queries[:3].astype(np.float64) * scale + offset
        if special is not None:
            q[2, 5] = special
        if not as_float and np.isfinite(q).all():
            q = q.astype(np.int64)
        try:
            res, _ = engine.search(q)
        except QueryDomainError:
            return
        _assert_valid(res.ids, res.distances)
