"""Whole-model checks: the float64 gradient check (encoder -> backbone -> head
-> loss), float32 gradients staying float32, train_toy's step-size schedule and
non-finite stop, and model sections that load only when they build and run."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.boxes import Box3D
from pillarmamba.config import CsgToggles, HsbToggles, ModelConfig, RunConfig, SsmConfig, config_from_dict
from pillarmamba.errors import ConfigurationError
from pillarmamba import model as model_mod
from pillarmamba.model import build_model, cosine_step_size, loss_on_scene, train_toy
from pillarmamba.pillars import GridSpec, PointCloud

GRID = GridSpec(x_range=(0.0, 1.6), y_range=(-0.8, 0.8), z_range=(-3.0, 1.0), pillar_size=0.2)  # 8x8
BOX = Box3D(x=0.75, y=0.1, z=-1.0, l=0.6, w=0.4, h=1.2, yaw=0.3, cls=0)


def _cloud() -> PointCloud:
    r = rng(40)
    on_box = np.column_stack([r.normal((BOX.x, BOX.y, BOX.z), (0.15, 0.1, 0.3), size=(24, 3)), r.uniform(0, 1, 24)])
    background = np.column_stack(
        [r.uniform(0.0, 1.6, 40), r.uniform(-0.8, 0.8, 40), r.uniform(-2.5, -1.5, 40), r.uniform(0, 1, 40)]
    )
    return PointCloud(np.concatenate([on_box, background]))


# The HSB under CSG, then a plain HSB chain.
# Every HSB here normalizes one channel: CSG at C=4 runs its HSBs at width 2 and reduction 2 halves
# that, and the plain chain takes reduction 4. A two-channel layer norm is a sign function smoothed
# over sqrt(1e-5) ~ 3e-3, whose curvature swamps a central difference (relative errors of 1e-3 and
# more at step 1e-8 on some seeds of the plain chain at reduction 2).
CASES = {
    "csg": (True, {}),
    "no-csg": (False, dict(reduction_ratio=4)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_directional_derivative_matches_central_difference(case):
    """<grad loss, v> against a central difference along a random v over every parameter."""
    csg_enabled, toggles = CASES[case]
    model_cfg = ModelConfig(
        channels=4,
        csg=CsgToggles(enabled=csg_enabled),
        hsb=HsbToggles(se_reduction=2, **toggles),
        ssm=SsmConfig(state_dim=2),
    )
    model = build_model(RunConfig(grid=GRID, model=model_cfg), seed=3, dtype=np.float64)
    cloud, targets = _cloud(), model.targets_for([BOX])
    assert targets.n_positives == 1
    params = model.params()
    r = rng(41)
    direction = [r.normal(size=p.shape) for p in params]

    with T.Tape() as tape:
        total, _ = loss_on_scene(model, cloud, targets)
    tape.backward(total)
    analytic = sum(float(np.vdot(tape.grad(p), v)) for p, v in zip(params, direction))

    base = [p.value.data.copy() for p in params]

    def loss_at(step: float) -> float:
        for p, b, v in zip(params, base, direction):
            p.value.data[...] = b + step * v
        return loss_on_scene(model, cloud, targets)[0].item()

    eps = 1e-6
    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    assert abs(analytic) > 1e-3
    assert abs(analytic - numeric) <= 1e-7 * max(abs(analytic), abs(numeric))


def _small_model(dtype):
    model_cfg = ModelConfig(channels=4, hsb=HsbToggles(se_reduction=2), ssm=SsmConfig(state_dim=2))
    return build_model(RunConfig(grid=GRID, model=model_cfg), seed=3, dtype=dtype)


def test_float32_loss_and_gradients_stay_float32():
    model = _small_model(np.float32)
    with T.Tape() as tape:
        total, _ = loss_on_scene(model, _cloud(), model.targets_for([BOX]))
    tape.backward(total)
    assert T.value(total).dtype == np.float32
    assert [p.name for p in model.params() if tape.grad(p).dtype != np.float32] == []


def test_step_size_starts_at_lr_and_falls_monotonically_toward_0():
    lr, steps = 0.02, 300
    sizes = [cosine_step_size(lr, k, steps) for k in range(steps)]
    assert sizes[0] == lr  # the first update, which perfbench/golden.json pins, is unchanged
    assert all(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert 0.0 < sizes[-1] < 1e-4 * lr


def test_train_toy_steps_by_the_schedule(monkeypatch):
    calls = []
    monkeypatch.setattr(model_mod, "cosine_step_size", lambda *a: calls.append(a) or cosine_step_size(*a))
    train_toy(_small_model(np.float32), _cloud(), [BOX], steps=3, lr=0.02)
    assert calls == [(0.02, 0, 3), (0.02, 1, 3), (0.02, 2, 3)]


def test_train_toy_stops_on_non_finite_loss():
    model = _small_model(np.float32)
    params = model.params()
    params[0].value.data[0, 0] = np.nan
    before = [p.value.data.copy() for p in params]
    with pytest.raises(FloatingPointError, match="step 0"):
        train_toy(model, _cloud(), [BOX], steps=3, lr=0.02)
    for p, b in zip(params, before):  # raised before the update
        np.testing.assert_array_equal(p.value.data, b)


@settings(max_examples=40)
@given(
    channels=st.integers(0, 8),
    csg_enabled=st.booleans(),
    reduction_ratio=st.integers(0, 2),
    se_reduction=st.integers(0, 2),
    dw_kernel=st.integers(0, 5),
    state_dim=st.integers(0, 2),
    hsb_layers=st.integers(0, 2),
)
# sections that must load, so every run builds some models: CSG at width 2, a plain chain at reduction 1
@example(4, True, 2, 2, 3, 2, 1)
@example(3, False, 1, 1, 5, 1, 2)
def test_model_section_loads_only_if_it_builds_and_runs(
    channels, csg_enabled, reduction_ratio, se_reduction, dw_kernel, state_dim, hsb_layers
):
    raw = {
        "grid": {"x_range": [0.0, 1.6], "y_range": [-0.8, 0.8], "z_range": [-3.0, 1.0], "pillar_size": 0.2},
        "model": {
            "channels": channels,
            "csg": {"enabled": csg_enabled, "hsb_layers": hsb_layers},
            "hsb": {"reduction_ratio": reduction_ratio, "se_reduction": se_reduction, "dw_kernel": dw_kernel},
            "ssm": {"state_dim": state_dim},
        },
    }
    try:
        cfg = config_from_dict(raw)
    except ConfigurationError:
        return
    maps = build_model(cfg, seed=0).forward_cloud(_cloud())
    assert T.value(maps.heatmap).shape[1:] == (8, 8)
    assert np.isfinite(T.value(maps.heatmap)).all() and np.isfinite(T.value(maps.regression)).all()
