"""HSB/CSG block contracts across ablation toggles, SE gating, MAC counting."""

import numpy as np
import pytest

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.blocks import (
    CsgConfig,
    HsbConfig,
    csg_forward,
    flops_conv2d,
    flops_csg,
    flops_hsb,
    flops_plain_stack,
    hsb_forward,
    init_csg_params,
    init_hsb_params,
    init_se_params,
    se_attention,
)
from pillarmamba.config import CsgToggles, HsbToggles, ModelConfig
from pillarmamba.errors import ConfigurationError, ContractViolation

TOGGLE_ROWS = [  # the four ablation rows: none, LC, LC+Res, LC+Res+Attn
    dict(local_conv=False, residual=False, attention=False),
    dict(local_conv=True, residual=False, attention=False),
    dict(local_conv=True, residual=True, attention=False),
    dict(local_conv=True, residual=True, attention=True),
]


class TestSeAttention:
    def test_zero_input_zero_weights_half_gates(self):
        se = init_se_params(rng(0), channels=6, reduction=2, dtype=np.float64)
        for p in T.collect_params(se):
            p.value.data[...] = 0.0
        gates = T.value(se_attention(T.Tensor(np.zeros((6, 4, 4))), se))
        np.testing.assert_allclose(gates, 0.5, atol=1e-12)

    def test_identical_channels_identical_gates(self):
        # symmetric weights for channels 0 and 1 plus identical content
        se = init_se_params(rng(1), channels=3, reduction=1, dtype=np.float64)
        se.w1.value.data[1] = se.w1.value.data[0]
        se.w2.value.data[:, 1] = se.w2.value.data[:, 0]
        se.b2.value.data[1] = se.b2.value.data[0]
        x = rng(2).normal(size=(3, 4, 4))
        x[1] = x[0]
        gates = T.value(se_attention(T.Tensor(x), se))
        assert gates[0] == pytest.approx(gates[1], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gates_strictly_inside_unit_interval(self, seed):
        se = init_se_params(rng(seed), channels=8, reduction=4, dtype=np.float64)
        gates = T.value(se_attention(T.Tensor(rng(seed + 100).normal(size=(8, 5, 5))), se))
        assert (gates > 0.0).all() and (gates < 1.0).all()


class TestHsb:
    @pytest.mark.parametrize("toggles", TOGGLE_ROWS)
    def test_zero_propagation(self, toggles):
        cfg = HsbConfig(channels=4, state_dim=2, se_reduction=2, **toggles)
        params = init_hsb_params(rng(3), cfg, dtype=np.float64)
        out = hsb_forward(T.Tensor(np.zeros((4, 5, 5))), cfg, params)
        np.testing.assert_array_equal(T.value(out), 0.0)

    @pytest.mark.parametrize("toggles", TOGGLE_ROWS)
    def test_shape_contract(self, toggles):
        cfg = HsbConfig(channels=16, state_dim=2, **toggles)
        params = init_hsb_params(rng(4), cfg, dtype=np.float64)
        out = hsb_forward(T.Tensor(rng(5).normal(size=(16, 8, 8))), cfg, params)
        assert T.value(out).shape == (16, 8, 8)
        assert np.isfinite(T.value(out)).all()

    def test_unit_gates_reduce_to_depthwise_conv(self):
        cfg = HsbConfig(channels=4, state_dim=2, se_reduction=2)
        params = init_hsb_params(rng(6), cfg, dtype=np.float64)
        params.se.b2.value.data[...] = 1000.0  # sigmoid saturates to exactly 1.0
        x = T.Tensor(rng(7).normal(size=(4, 6, 6)))
        out = T.value(hsb_forward(x, cfg, params))
        dw = T.value(T.conv2d(x, params.dw_outer_w, params.dw_outer_b, padding=1, groups=4))
        np.testing.assert_array_equal(out, dw)

    def test_attention_alt_residual_adds_trunk(self):
        cfg_lit = HsbConfig(channels=4, state_dim=2, se_reduction=2)
        cfg_alt = HsbConfig(channels=4, state_dim=2, se_reduction=2, attention_alt_residual=True)
        params = init_hsb_params(rng(8), cfg_lit, dtype=np.float64)
        x = T.Tensor(rng(9).normal(size=(4, 4, 4)))
        literal = T.value(hsb_forward(x, cfg_lit, params))
        alt = T.value(hsb_forward(x, cfg_alt, params))
        assert np.abs(literal - alt).max() > 1e-6  # alt adds the expanded trunk

    def test_channel_mismatch_rejected(self):
        cfg = HsbConfig(channels=4, state_dim=2)
        params = init_hsb_params(rng(10), cfg, dtype=np.float64)
        with pytest.raises(ContractViolation):
            hsb_forward(T.Tensor(np.zeros((6, 4, 4))), cfg, params)

    def test_indivisible_reduction_rejected(self):
        # the width rule is the model section's: it fails at load, naming the key
        with pytest.raises(ConfigurationError, match=r"model\.hsb\.reduction_ratio"):
            ModelConfig(channels=5, csg=CsgToggles(enabled=False), hsb=HsbToggles(reduction_ratio=2))

    def test_attention_only_gates_trunk(self):
        cfg = HsbConfig(channels=4, state_dim=2, se_reduction=2, local_conv=False, residual=False, attention=True)
        params = init_hsb_params(rng(11), cfg, dtype=np.float64)
        assert params.dw_outer_w is None and params.se is not None
        out = hsb_forward(T.Tensor(rng(12).normal(size=(4, 4, 4))), cfg, params)
        assert T.value(out).shape == (4, 4, 4)

    def test_toggles_control_parameter_creation(self):
        bare = init_hsb_params(rng(13), HsbConfig(channels=4, state_dim=2, local_conv=False, residual=False, attention=False), dtype=np.float64)
        assert bare.se is None and bare.dw_outer_w is None and bare.dw_inner_w is None
        full = init_hsb_params(rng(13), HsbConfig(channels=4, state_dim=2, se_reduction=2), dtype=np.float64)
        assert full.se is not None and full.dw_outer_w is not None and full.dw_inner_w is not None

    @pytest.mark.parametrize("row", range(4))
    def test_gradients(self, row):
        cfg = HsbConfig(channels=4, state_dim=2, se_reduction=2, **TOGGLE_ROWS[row])
        params = init_hsb_params(rng(row), cfg, dtype=np.float64)
        x = T.Tensor(rng(row + 50).normal(size=(4, 3, 3)))
        rep = T.grad_check(lambda x_, *ps: T.reduce_sum(hsb_forward(x_, cfg, params)), [x] + T.collect_params(params))
        assert rep.passed, rep


class TestCsg:
    def test_zero_propagation(self):
        cfg = CsgConfig(channels=8, hsb_layers=2)
        hsb_cfg = HsbConfig(channels=4, state_dim=2, se_reduction=2)
        params = init_csg_params(rng(14), cfg, hsb_cfg, dtype=np.float64)
        out = csg_forward(T.Tensor(np.zeros((8, 4, 4))), cfg, hsb_cfg, params)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_branch_width_configuration(self):
        cfg = CsgConfig(channels=64)
        assert cfg.branch_channels == 32
        hsb_cfg = HsbConfig(channels=32, state_dim=2)
        params = init_csg_params(rng(15), cfg, hsb_cfg, dtype=np.float64)
        assert T.value(params.hsbs[0].conv_down_w).shape == (16, 32, 1, 1)

    def test_branch_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            init_csg_params(rng(16), CsgConfig(channels=8), HsbConfig(channels=3, reduction_ratio=1), dtype=np.float64)

    def test_improper_split_rejected(self):
        with pytest.raises(ConfigurationError, match=r"model\.csg\.split_fraction"):
            ModelConfig(channels=5, csg=CsgToggles(split_fraction=0.5))

    def test_shape_and_finiteness(self):
        cfg = CsgConfig(channels=8)
        hsb_cfg = HsbConfig(channels=4, state_dim=2, se_reduction=2)
        params = init_csg_params(rng(17), cfg, hsb_cfg, dtype=np.float64)
        out = T.value(csg_forward(T.Tensor(rng(18).normal(size=(8, 6, 6))), cfg, hsb_cfg, params))
        assert out.shape == (8, 6, 6) and np.isfinite(out).all()

    def test_gradients(self):
        cfg = CsgConfig(channels=4, hsb_layers=1)
        hsb_cfg = HsbConfig(channels=2, state_dim=2, se_reduction=2)
        params = init_csg_params(rng(19), cfg, hsb_cfg, dtype=np.float64)
        x = T.Tensor(rng(20).normal(size=(4, 3, 3)))
        rep = T.grad_check(lambda x_, *ps: T.reduce_sum(csg_forward(x_, cfg, hsb_cfg, params)), [x] + T.collect_params(params))
        assert rep.passed, rep


class TestFlops:
    def test_pointwise_conv_count(self):
        assert flops_conv2d(64, 64, 1, 64, 64) == 64 * 64 * 64 * 64 == 16_777_216

    def test_area_linearity(self):
        # every conv/scan term is per-site; only the SE gate MLP is constant
        hsb_no_attn = HsbConfig(channels=16, state_dim=8, attention=False)
        csg = CsgConfig(channels=32)
        branch_no_attn = HsbConfig(channels=16, state_dim=8, attention=False)
        from pillarmamba.blocks import flops_ss2d

        for fn in (
            lambda x, y: flops_conv2d(8, 8, 3, x, y),
            lambda x, y: flops_ss2d(8, 4, x, y),
            lambda x, y: flops_hsb(hsb_no_attn, x, y),
            lambda x, y: flops_csg(csg, branch_no_attn, x, y),
        ):
            assert fn(16, 32) == 2 * fn(16, 16)
            assert fn(32, 32) == 4 * fn(16, 16)
        # with attention the constant gate MLP cost is the only deviation
        hsb = HsbConfig(channels=16, state_dim=8)
        gate_mlp = 2 * 16 * (16 // hsb.se_reduction)
        assert flops_hsb(hsb, 16, 32) == 2 * flops_hsb(hsb, 16, 16) - gate_mlp

    @pytest.mark.parametrize("channels", [4, 8, 16, 32, 64, 128])
    def test_split_always_cheaper(self, channels):
        layers = 2
        csg = CsgConfig(channels=channels, hsb_layers=layers)
        branch_cfg = HsbConfig(channels=csg.branch_channels, state_dim=8)
        full_cfg = HsbConfig(channels=channels, state_dim=8)
        split_cost = flops_csg(csg, branch_cfg, 64, 64)
        plain_cost = flops_plain_stack(full_cfg, layers, 64, 64)
        assert split_cost < plain_cost

    def test_csg_example_c64(self):
        csg = CsgConfig(channels=64, hsb_layers=2)
        branch = HsbConfig(channels=32, state_dim=8)
        full = HsbConfig(channels=64, state_dim=8)
        assert flops_csg(csg, branch, 64, 64) < flops_plain_stack(full, 2, 64, 64)
