"""HSB/CSG block contracts in both HSB output forms, SE gating, MAC counting."""

import numpy as np
import pytest

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.blocks import (
    csg_forward,
    flops_conv2d,
    flops_hsb,
    flops_ss2d,
    flops_stage,
    hsb_forward,
    init_csg_params,
    init_hsb_params,
    init_se_params,
    se_attention,
)
from pillarmamba.config import CsgToggles, HsbToggles, ModelConfig, SsmConfig
from pillarmamba.errors import ConfigurationError, ContractViolation

def model_cfg(channels: int, csg: bool = False, hsb_layers: int = 2, state_dim: int = 2, **hsb) -> ModelConfig:
    """A small model section: CSG off unless asked for, SE reduction 2 unless given."""
    hsb.setdefault("se_reduction", 2)
    return ModelConfig(
        channels=channels,
        csg=CsgToggles(enabled=csg, hsb_layers=hsb_layers),
        hsb=HsbToggles(**hsb),
        ssm=SsmConfig(state_dim=state_dim),
    )


class TestSeAttention:
    def test_zero_input_zero_weights_half_gates(self):
        se = init_se_params(rng(0), channels=6, reduction=2)
        for p in T.collect_params(se):
            p.value.data[...] = 0.0
        gates = T.value(se_attention(T.Tensor(np.zeros((6, 4, 4))), se))
        np.testing.assert_allclose(gates, 0.5, atol=1e-12)

    def test_identical_channels_identical_gates(self):
        # symmetric weights for channels 0 and 1 plus identical content
        se = init_se_params(rng(1), channels=3, reduction=1)
        se.w1.value.data[1] = se.w1.value.data[0]
        se.w2.value.data[:, 1] = se.w2.value.data[:, 0]
        se.b2.value.data[1] = se.b2.value.data[0]
        x = rng(2).normal(size=(3, 4, 4))
        x[1] = x[0]
        gates = T.value(se_attention(T.Tensor(x), se))
        assert gates[0] == pytest.approx(gates[1], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gates_strictly_inside_unit_interval(self, seed):
        se = init_se_params(rng(seed), channels=8, reduction=4)
        gates = T.value(se_attention(T.Tensor(rng(seed + 100).normal(size=(8, 5, 5))), se))
        assert (gates > 0.0).all() and (gates < 1.0).all()


class TestHsb:
    def test_zero_propagation(self):
        cfg = model_cfg(4)
        params = init_hsb_params(rng(3), cfg)
        out = hsb_forward(T.Tensor(np.zeros((4, 5, 5))), cfg, params)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_shape_contract(self):
        cfg = model_cfg(16, se_reduction=4)
        params = init_hsb_params(rng(4), cfg)
        out = hsb_forward(T.Tensor(rng(5).normal(size=(16, 8, 8))), cfg, params)
        assert T.value(out).shape == (16, 8, 8)
        assert np.isfinite(T.value(out)).all()

    def test_unit_gates_reduce_to_depthwise_conv(self):
        cfg = model_cfg(4)
        params = init_hsb_params(rng(6), cfg)
        params.se.b2.value.data[...] = 1000.0  # sigmoid saturates to exactly 1.0
        x = T.Tensor(rng(7).normal(size=(4, 6, 6)))
        out = T.value(hsb_forward(x, cfg, params))
        dw = T.value(T.conv2d(x, *params.dw_outer, padding=1))
        np.testing.assert_array_equal(out, dw)

    def test_channel_mismatch_rejected(self):
        cfg = model_cfg(4, se_reduction=4)
        params = init_hsb_params(rng(10), cfg)
        with pytest.raises(ContractViolation):
            hsb_forward(T.Tensor(np.zeros((6, 4, 4))), cfg, params)

    def test_indivisible_reduction_rejected(self):
        # the width rule is the model section's: it fails at load, naming the key
        with pytest.raises(ConfigurationError, match=r"model\.hsb\.reduction_ratio"):
            ModelConfig(channels=5, csg=CsgToggles(enabled=False), hsb=HsbToggles(reduction_ratio=2))

    def test_gradients(self):
        cfg = model_cfg(4)
        params = init_hsb_params(rng(3), cfg)
        x = T.Tensor(rng(53).normal(size=(4, 3, 3)))
        rep = T.grad_check(lambda x_, *ps: T.reduce_sum(hsb_forward(x_, cfg, params)), [x] + T.collect_params(params))
        assert rep.passed, rep


class TestCsg:
    def test_zero_propagation(self):
        cfg = model_cfg(8, csg=True)
        params = init_csg_params(rng(14), cfg)
        out = csg_forward(T.Tensor(np.zeros((8, 4, 4))), cfg, params)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_branch_width_configuration(self):
        cfg = model_cfg(64, csg=True, se_reduction=4)
        assert (cfg.hsb_channels, cfg.hsb_inner_channels) == (32, 16)
        params = init_csg_params(rng(15), cfg)
        assert T.value(params.hsbs[0].conv_down[0]).shape == (16, 32, 1, 1)

    def test_improper_split_rejected(self):
        # the split halves the channels, so an odd count fails at load, naming the key
        with pytest.raises(ConfigurationError, match=r"model\.channels"):
            ModelConfig(channels=5)

    def test_shape_and_finiteness(self):
        cfg = model_cfg(8, csg=True)
        params = init_csg_params(rng(17), cfg)
        out = T.value(csg_forward(T.Tensor(rng(18).normal(size=(8, 6, 6))), cfg, params))
        assert out.shape == (8, 6, 6) and np.isfinite(out).all()

    def test_gradients(self):
        cfg = model_cfg(4, csg=True, hsb_layers=1)
        params = init_csg_params(rng(19), cfg)
        x = T.Tensor(rng(20).normal(size=(4, 3, 3)))
        rep = T.grad_check(lambda x_, *ps: T.reduce_sum(csg_forward(x_, cfg, params)), [x] + T.collect_params(params))
        assert rep.passed, rep


class TestFlops:
    def test_pointwise_conv_count(self):
        assert flops_conv2d(64, 64, 1, 64, 64) == 64 * 64 * 64 * 64 == 16_777_216

    def test_area_linearity(self):
        # every conv/scan term is per-site; only each HSB's SE gate MLP is constant
        for fn in (lambda x, y: flops_conv2d(8, 8, 3, x, y), lambda x, y: flops_ss2d(8, 4, x, y)):
            assert fn(16, 32) == 2 * fn(16, 16)
            assert fn(32, 32) == 4 * fn(16, 16)
        gate_mlp = 2 * 16 * (16 // 4)  # both configs below run their HSBs at width 16
        for cfg in (model_cfg(16, state_dim=8, se_reduction=4), model_cfg(32, csg=True, state_dim=8, se_reduction=4)):
            for fn, hsbs in ((flops_hsb, 1), (flops_stage, cfg.csg.hsb_layers)):
                assert fn(cfg, 16, 32) == 2 * fn(cfg, 16, 16) - hsbs * gate_mlp
                assert fn(cfg, 32, 32) == 4 * fn(cfg, 16, 16) - 3 * hsbs * gate_mlp

    @pytest.mark.parametrize("channels", [4, 8, 16, 32, 64, 128])
    def test_split_always_cheaper(self, channels):
        split_cost = flops_stage(model_cfg(channels, csg=True, state_dim=8, se_reduction=4), 64, 64)
        plain_cost = flops_stage(model_cfg(channels, state_dim=8, se_reduction=4), 64, 64)
        assert split_cost < plain_cost

    def test_csg_example_c64(self):
        # the default model section at the 64x64 desk grid: the stage1_mac_count values `bench` writes
        split_cost = flops_stage(ModelConfig(), 64, 64)
        plain_cost = flops_stage(ModelConfig(csg=CsgToggles(enabled=False)), 64, 64)
        assert (split_cost, plain_cost) == (89_392_128, 153_620_480)
