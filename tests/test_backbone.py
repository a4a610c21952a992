"""Feature-pyramid shape contracts, determinism, zero propagation, grad wiring."""

import numpy as np
import pytest

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.backbone import backbone_forward, init_backbone_params, validate_grid_for_backbone
from pillarmamba.config import CsgToggles, HsbToggles, ModelConfig, SsmConfig
from pillarmamba.errors import ConfigurationError


def tiny_cfg(csg_enabled=True, channels=8) -> ModelConfig:
    return ModelConfig(
        channels=channels,
        csg=CsgToggles(enabled=csg_enabled),
        hsb=HsbToggles(se_reduction=2),
        ssm=SsmConfig(state_dim=2),
    )


class TestShapes:
    @pytest.mark.parametrize("csg_enabled", [True, False])
    def test_pyramid_shapes(self, csg_enabled):
        cfg = tiny_cfg(csg_enabled)
        params = init_backbone_params(rng(0), cfg)
        x = T.Tensor(rng(1).normal(size=(8, 16, 16)))
        pyr = backbone_forward(x, cfg, params)
        assert T.value(pyr.f1).shape == (8, 16, 16)
        assert T.value(pyr.f2).shape == (8, 8, 8)
        assert T.value(pyr.f3).shape == (8, 4, 4)
        assert T.value(pyr.f4).shape == (8, 2, 2)
        assert T.value(pyr.f5).shape == (8, 16, 16)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_grid_for_backbone(20, 16)
        cfg = tiny_cfg()
        params = init_backbone_params(rng(2), cfg)
        with pytest.raises(ConfigurationError):
            backbone_forward(T.Tensor(np.zeros((8, 20, 16))), cfg, params)


class TestBehavior:
    def test_determinism(self):
        cfg = tiny_cfg()
        params = init_backbone_params(rng(3), cfg)
        T.cast_params(params, np.float32)
        x = T.Tensor(rng(4).normal(size=(8, 16, 16)).astype(np.float32))
        a = T.value(backbone_forward(x, cfg, params).f5)
        b = T.value(backbone_forward(x, cfg, params).f5)
        np.testing.assert_array_equal(a, b)

    def test_zero_input_zero_output(self):
        cfg = tiny_cfg()
        params = init_backbone_params(rng(5), cfg)
        pyr = backbone_forward(T.Tensor(np.zeros((8, 16, 16))), cfg, params)
        for level in (pyr.f1, pyr.f2, pyr.f3, pyr.f4, pyr.f5):
            np.testing.assert_array_equal(T.value(level), 0.0)

    def test_finite_outputs(self):
        cfg = tiny_cfg()
        params = init_backbone_params(rng(6), cfg)
        T.cast_params(params, np.float32)
        x = T.Tensor((rng(7).normal(size=(8, 16, 16)) * 3).astype(np.float32))
        pyr = backbone_forward(x, cfg, params)
        for level in (pyr.f1, pyr.f2, pyr.f3, pyr.f4, pyr.f5):
            assert np.isfinite(T.value(level)).all()

    @pytest.mark.parametrize("csg_enabled", [True, False])
    def test_gradient_reaches_every_parameter(self, csg_enabled):
        cfg = tiny_cfg(csg_enabled)
        params = init_backbone_params(rng(8), cfg)
        T.cast_params(params, np.float32)
        x = T.Tensor(rng(9).normal(size=(8, 16, 16)).astype(np.float32))
        with T.Tape() as tape:
            pyr = backbone_forward(x, cfg, params)
            # mix channels unevenly so symmetric cancellations cannot hide wiring bugs
            weights = T.Tensor(np.linspace(0.5, 2.0, 8, dtype=np.float32).reshape(8, 1, 1))
            loss = T.reduce_sum(T.mul(pyr.f5, weights))
        tape.backward(loss)
        dead = [name for name, p in T.named_params(params) if not np.any(tape.grad(p) != 0)]
        assert not dead, f"parameters with identically-zero gradient: {dead}"
