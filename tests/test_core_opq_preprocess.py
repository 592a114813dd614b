import numpy as np
import pytest

from repro.core.opq_preprocess import OpqPreprocessor


@pytest.fixture(scope="module")
def trained(small_ds):
    return OpqPreprocessor.train(
        small_ds.base[:4000], num_subspaces=16, seed=0
    )


class TestTrain:
    def test_rotation_orthogonal(self, trained):
        r = trained.rotation
        np.testing.assert_allclose(r @ r.T, np.eye(r.shape[0]), atol=1e-8)

    def test_output_uint8(self, trained, small_ds):
        out = trained.transform(small_ds.base[:100])
        assert out.dtype == np.uint8
        assert out.shape == (100, small_ds.dim)

    def test_little_clipping(self, trained, small_ds):
        """The affine fit should keep almost everything in-range."""
        x = small_ds.base[:2000].astype(np.float64)
        rot = x @ trained.rotation.T
        mapped = trained.scale * rot + trained.offset
        clipped = np.mean((mapped < 0) | (mapped > 255))
        assert clipped < 0.02

    def test_deterministic(self, small_ds):
        a = OpqPreprocessor.train(small_ds.base[:2000], 16, seed=3)
        b = OpqPreprocessor.train(small_ds.base[:2000], 16, seed=3)
        np.testing.assert_allclose(a.rotation, b.rotation)

    def test_dim_mismatch(self, trained):
        with pytest.raises(ValueError, match="dim"):
            trained.transform(np.zeros((3, 5)))

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            OpqPreprocessor(rotation=np.zeros((3, 4)), scale=1.0, offset=0.0)
        with pytest.raises(ValueError, match="scale"):
            OpqPreprocessor(rotation=np.eye(3), scale=0.0, offset=0.0)


class TestGeometry:
    def test_neighbor_ranks_mostly_preserved(self, trained, small_ds):
        """Orthogonal rotation preserves L2; requantization only
        perturbs near-ties."""
        from repro.ann.distance import l2_sq

        base = small_ds.base[:500]
        q = small_ds.queries[:20]
        d_orig = l2_sq(q.astype(np.float64), base.astype(np.float64))
        tb = trained.transform(base)
        tq = trained.transform(q)
        d_rot = l2_sq(tq.astype(np.float64), tb.astype(np.float64))
        nn_orig = d_orig.argmin(axis=1)
        nn_rot = d_rot.argmin(axis=1)
        assert (nn_orig == nn_rot).mean() > 0.8


class TestEngineIntegration:
    def test_opq_engine_matches_its_reference(self, small_ds):
        from repro.core import DrimAnnEngine, EngineConfig, IndexParams
        from repro.pim.config import PimSystemConfig

        params = IndexParams(
            nlist=32, nprobe=4, k=10, num_subspaces=16, codebook_size=32
        )
        eng = DrimAnnEngine.from_config(
            small_ds.base[:5000],
            EngineConfig(
                index=params,
                system=PimSystemConfig(num_dpus=8),
                use_opq=True,
            ),
            seed=0,
        )
        assert eng.preprocessor is not None
        q = small_ds.queries[:30]
        res, _ = eng.search(q)
        ref = eng.reference_search(q)
        np.testing.assert_allclose(
            np.sort(res.distances, axis=1), np.sort(ref.distances, axis=1)
        )

    def test_opq_with_prebuilt_rejected(self, small_ds, small_quantized, small_params):
        from repro.core import DrimAnnEngine, EngineConfig

        with pytest.raises(ValueError, match="use_opq"):
            DrimAnnEngine.from_config(
                small_ds.base,
                EngineConfig(
                    index=small_params,
                    use_opq=True,
                ),
                prebuilt_quantized=small_quantized,
                seed=0,
            )
