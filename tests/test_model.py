"""Whole-model checks: the float64 gradient check (encoder -> backbone -> head
-> loss), float32 gradients staying float32, the parameter tree's names and
dtypes, train_toy's step-size schedule and non-finite stop, and model sections
that load only when they build and run."""

import hashlib
import inspect
import platform
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.backbone import init_backbone_params
from pillarmamba.blocks import init_csg_params, init_hsb_params, init_se_params
from pillarmamba.boxes import Box3D
from pillarmamba.config import CsgToggles, HsbToggles, ModelConfig, RunConfig, SsmConfig, config_from_dict, default_config
from pillarmamba.cross_scan import init_ss2d_params
from pillarmamba.data_io import generate_scene, scene_spec_from_config
from pillarmamba.errors import ConfigurationError
from pillarmamba.head import build_targets, decode, detection_loss, gaussian_radius, init_head_params
from pillarmamba import model as model_mod
from pillarmamba.model import build_model, cosine_step_size, loss_on_scene, train_toy
from pillarmamba.pillars import GridSpec, PointCloud, encode_cloud, init_encoder_params, voxelize
from pillarmamba.ssm import init_selective_projections
from pillarmamba.verify import run_grad_suite

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
    assert [name for name, p in model.named_params() if tape.grad(p).dtype != np.float32] == []


def _variants() -> dict[str, RunConfig]:
    cfg = default_config()
    return {
        "default": cfg,
        "c32": replace(cfg, model=replace(cfg.model, channels=32)),
        "csg_off": replace(cfg, model=replace(cfg.model, csg=replace(cfg.model.csg, enabled=False))),
    }


# sha256 over the float32 bytes of the seed-0 default model's parameters, in weights-file order
DEFAULT_PARAMS_SHA256 = "cbf34ba552cf1ff2d5c5b3e1844c69bedec9969c422b3333d066b3fa36febe1a"


class TestParameterTree:
    @pytest.mark.parametrize("variant", ["default", "csg_off"])
    def test_every_weights_name_is_its_field_path(self, variant):
        model = build_model(_variants()[variant], seed=0)
        named = model.named_params()
        assert len({name for name, _ in named}) == len(named) == len(model.params())
        for name, p in named:
            node = model
            for key in name.split("."):
                node = node[int(key)] if isinstance(node, tuple) else getattr(node, key)
            assert node is p, name

    def test_init_functions_draw_float64(self):
        cfg = ModelConfig(channels=8, hsb=HsbToggles(se_reduction=2), ssm=SsmConfig(state_dim=2))
        off = replace(cfg, csg=CsgToggles(enabled=False))
        trees = [
            T.conv_param(rng(0), 4, 2, 3),
            init_encoder_params(rng(1), 8),
            init_backbone_params(rng(2), cfg),
            init_backbone_params(rng(3), off),
            init_csg_params(rng(4), cfg),
            init_hsb_params(rng(5), off),
            init_se_params(rng(6), 8, 2),
            init_ss2d_params(rng(7), 4, 2),
            init_selective_projections(rng(8), 4, 2, 3),
            init_head_params(rng(9), 8, 3),
        ]
        assert {p.value.dtype for tree in trees for p in T.collect_params(tree)} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("variant", ["default", "c32", "csg_off"])
    def test_float32_build_is_the_float64_build_cast_once(self, variant):
        cfg = _variants()[variant]
        f32, f64 = build_model(cfg, seed=0).named_params(), build_model(cfg, seed=0, dtype=np.float64).named_params()
        assert [name for name, _ in f32] == [name for name, _ in f64]
        for (_, a), (_, b) in zip(f32, f64, strict=True):
            assert a.value.dtype == np.float32 and b.value.dtype == np.float64
            assert a.value.data.tobytes() == b.value.data.astype(np.float32).tobytes()

    def test_default_parameter_bytes_pinned(self):
        digest = hashlib.sha256(b"".join(p.value.data.tobytes() for p in build_model(default_config(), seed=0).params()))
        assert digest.hexdigest() == DEFAULT_PARAMS_SHA256


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


def test_taped_forward_of_a_c07_step_keeps_only_what_its_backward_reads():
    # c07's model (desk grid, C=32, seed 0) on c07's scene leaves 29.8 MiB live once the forward is taped: the
    # arrays the backward closures capture (ssm_scan's inputs and states, conv2d's phase buffers, ...). Records that
    # held their output and parent tensors would leave 41.5 MiB
    cfg = default_config()
    cfg = replace(cfg, model=replace(cfg.model, channels=32))
    net = build_model(cfg, seed=0)
    cloud, boxes = generate_scene(scene_spec_from_config(cfg, seed=7))
    targets = net.targets_for(boxes)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with T.Tape() as tape:
            loss_on_scene(net, cloud, targets)
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert tape._records
    assert live <= 33 * 2**20, f"{live / 2**20:.1f} MiB live after the taped forward"


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


def test_model_sums_the_voxelizer_drops_over_its_clouds():
    # one pillar of 5 points capped at 3, one point out of range; the run report's forward totals read this
    model = _small_model(np.float32)
    encoder = replace(model.cfg.model.encoder, max_points_per_pillar=3)
    model.cfg = replace(model.cfg, model=replace(model.cfg.model, encoder=encoder))
    cloud = PointCloud(np.array([[0.75, 0.1, -1.0, 0.5]] * 5 + [[99.0, 0.0, 0.0, 0.0]], dtype=np.float32))
    for _ in range(2):
        model.detect(cloud)
    assert model.dropped == {"dropped_out_of_range": 2, "dropped_over_capacity": 4, "dropped_pillars": 0}


def test_layer_functions_hold_no_copy_of_a_config_default():
    # the config dataclasses state each default once; a caller that leaves a value out fails
    owned = {
        voxelize: ("max_points_per_pillar", "max_pillars"),
        encode_cloud: ("max_points_per_pillar", "max_pillars"),
        decode: ("top_k", "score_threshold"),
        build_targets: ("min_overlap",),
        gaussian_radius: ("min_overlap",),
        detection_loss: ("reg_weight",),
        run_grad_suite: ("seeds_per_check",),
    }
    for fn, names in owned.items():
        params = inspect.signature(fn).parameters
        assert [n for n in names if params[n].default is not inspect.Parameter.empty] == [], fn.__name__


def _with_head(**changes):
    model = _small_model(np.float32)
    model.cfg = replace(model.cfg, head=replace(model.cfg.head, **changes))
    return model


def test_detect_reads_the_head_top_k_and_score_threshold():
    # at init every heatmap logit sits near the bias, so a dozen peaks clear the default threshold of 0.1
    scores = [d.score for d in _with_head().detect(_cloud())]
    assert len(scores) > 1
    assert len(_with_head(top_k=1).detect(_cloud())) == 1
    raised = _with_head(score_threshold=float(np.median(scores)))
    assert 0 < len(raised.detect(_cloud())) < len(scores)


def test_loss_reads_the_head_reg_weight():
    model = _with_head(reg_weight=0.0)
    _, breakdown = loss_on_scene(model, _cloud(), model.targets_for([BOX]))
    assert breakdown["l1"] > 0.0
    assert breakdown["total"] == breakdown["focal"]


def test_targets_read_the_head_gaussian_min_overlap():
    # BOX spans 3x2 cells: radius 0.66 at the default overlap 0.7 (a lone peak), 1.2 at 0.3
    default = _with_head().targets_for([BOX]).heatmap
    wider = _with_head(gaussian_min_overlap=0.3).targets_for([BOX]).heatmap
    assert (default > 0).sum() == 1
    assert (wider > 0).sum() > 1


# ---------------------------------------------------------------------------
# heap policy: freed arrays stay in the process for the next scene
# ---------------------------------------------------------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
def test_warm_scenes_reuse_freed_arrays_instead_of_faulting_them_in():
    # at this config (desk grid, C=8) a scene faulted in about 960 zeroed pages under glibc's default policy
    import resource

    cfg = default_config()
    cfg = replace(cfg, model=replace(cfg.model, channels=8))
    model = build_model(cfg, seed=0)
    assert T._keep_freed_arrays()
    cloud, _ = generate_scene(scene_spec_from_config(cfg, seed=5))
    model.detect(cloud)  # warm-up: the heap grows to the scene's high-water mark
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        model.detect(cloud)
    faults_per_scene = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
    assert faults_per_scene < 64


def _fake_libc(accepts: bool):
    """A libc whose mallopt records its calls and accepts or refuses every one."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return int(accepts)

    return types.SimpleNamespace(mallopt=mallopt), calls


def _fresh_policy(monkeypatch, cdll):
    monkeypatch.setattr(T, "_heap_policy_kept", None)
    monkeypatch.setattr(T.ctypes, "CDLL", cdll)


def test_heap_policy_is_set_once_mmap_threshold_first(monkeypatch):
    libc, calls = _fake_libc(accepts=True)
    _fresh_policy(monkeypatch, lambda name: libc)
    _small_model(np.float32)
    _small_model(np.float64)
    assert calls == [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 1 << 30)]
    assert T._keep_freed_arrays() and len(calls) == 2


def test_a_refused_mmap_threshold_leaves_the_trim_threshold_alone(monkeypatch):
    # the trim threshold alone freezes glibc's mmap threshold at 128 KiB: about 23,000 faults a desk scene, not 4,700
    libc, calls = _fake_libc(accepts=False)
    _fresh_policy(monkeypatch, lambda name: libc)
    assert not T._keep_freed_arrays()
    assert calls == [(T._M_MMAP_THRESHOLD, 32 << 20)]


def _no_process_handle(name):
    raise TypeError("no process handle")  # what CDLL(None) raises on Windows


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_process_handle], ids=["no-symbol", "no-handle"])
def test_heap_policy_is_a_silent_no_op_without_mallopt(monkeypatch, cdll):
    _fresh_policy(monkeypatch, cdll)
    model = _small_model(np.float32)
    assert not T._keep_freed_arrays()
    assert np.isfinite(T.value(model.forward_cloud(_cloud()).heatmap)).all()
