"""Smoke-scale tests for the ablation runners."""

import numpy as np
import pytest

from repro.core.training import TrainingConfig
from repro.experiments.ablations import (
    run_anchor_selection_ablation,
    run_dual_quant_ablation,
    run_entropy_backend_ablation,
    run_parallel_block_ablation,
    run_predictor_ablation,
)

FAST = TrainingConfig(epochs=2, n_patches=12, batch_size=4, patch_size_2d=16, patch_size_3d=8)


class TestAblations:
    def test_dual_quant(self):
        result = run_dual_quant_ablation(shape=(32, 32))
        assert len(result.rows) == 2
        schemes = result.column("scheme")
        assert any("dual" in s for s in schemes)
        coded = result.column("entropy-coded bytes")
        assert all(b > 0 for b in coded)
        assert "dual" in result.format()

    def test_predictor_ablation(self):
        result = run_predictor_ablation("smoke")
        predictors = result.column("predictor")
        assert set(predictors) == {"lorenzo", "interpolation", "regression", "zfp-like"}
        assert all(r > 0.5 for r in result.column("ratio"))
        assert all(np.isfinite(p) for p in result.column("psnr"))

    def test_entropy_backend_ablation(self):
        result = run_entropy_backend_ablation("smoke")
        assert all(result.column("error bound held"))
        ratios = dict(zip(result.column("entropy+backend"), result.column("ratio")))
        assert ratios["huffman+zlib"] >= ratios["raw+raw"]

    def test_parallel_block_ablation(self):
        result = run_parallel_block_ablation("smoke", block_size=32, jobs=2)
        configs = result.column("configuration")
        assert "single-shot" in configs
        assert any("blocks" in c for c in configs)

    def test_anchor_selection_ablation(self):
        result = run_anchor_selection_ablation("smoke", training=FAST)
        configs = result.column("configuration")
        assert "paper anchors" in configs
        assert "mutual-information anchors" in configs
        assert "single anchor" in configs
        assert len(result.rows) == 4

    def test_column_lookup_error(self):
        result = run_dual_quant_ablation(shape=(16, 16))
        with pytest.raises(ValueError):
            result.column("nonexistent")
