"""Scene generation determinism and geometry, file formats, strict config."""

import hashlib
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from pillarmamba.boxes import Box3D
from pillarmamba.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    desk_grid,
    load_config,
)
from pillarmamba.data_io import (
    SceneSpec,
    generate_scene,
    load_cloud,
    load_labels,
    load_manifest,
    save_cloud,
    save_labels,
    write_dataset,
)
from pillarmamba.errors import ConfigurationError, FormatError, GenerationError
from pillarmamba.metrics import rotated_iou_bev
from pillarmamba.model import build_model
from pillarmamba.pillars import PointCloud


class TestGenerateScene:
    def test_same_seed_bit_identical(self):
        spec = SceneSpec(grid=desk_grid(), seed=42)
        cloud_a, boxes_a = generate_scene(spec)
        cloud_b, boxes_b = generate_scene(spec)
        np.testing.assert_array_equal(cloud_a.points, cloud_b.points)
        assert [(b.x, b.y, b.yaw) for b in boxes_a] == [(b.x, b.y, b.yaw) for b in boxes_b]

    def test_zero_counts_background_only(self):
        spec = SceneSpec(grid=desk_grid(), counts={}, background_points=64, seed=0)
        cloud, boxes = generate_scene(spec)
        assert boxes == []
        assert len(cloud) == 64

    def test_box_points_inside_footprint(self):
        spec = SceneSpec(grid=desk_grid(), counts={"vehicle": 2}, background_points=0, seed=5)
        cloud, boxes = generate_scene(spec)
        pts = cloud.points
        for i, b in enumerate(boxes):
            chunk = pts[i * spec.points_per_box : (i + 1) * spec.points_per_box]
            c, s = math.cos(b.yaw), math.sin(b.yaw)
            lx = c * (chunk[:, 0] - b.x) + s * (chunk[:, 1] - b.y)
            ly = -s * (chunk[:, 0] - b.x) + c * (chunk[:, 1] - b.y)
            assert (np.abs(lx) <= b.l / 2 + 1e-5).all()
            assert (np.abs(ly) <= b.w / 2 + 1e-5).all()
            assert (np.abs(chunk[:, 2] - b.z) <= b.h / 2 + 1e-5).all()

    def test_no_gt_overlap_and_centers_in_range(self):
        grid = desk_grid()
        spec = SceneSpec(grid=grid, counts={"vehicle": 3, "pedestrian": 3, "cyclist": 2}, seed=9)
        _, boxes = generate_scene(spec)
        assert len(boxes) == 8
        for b in boxes:
            assert grid.x_range[0] <= b.x < grid.x_range[1]
            assert grid.y_range[0] <= b.y < grid.y_range[1]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert rotated_iou_bev(a, b) == 0.0

    def test_impossible_placement_raises(self):
        tight = SceneSpec(
            grid=desk_grid(), counts={"vehicle": 40}, min_center_gap=6.0, seed=0
        )
        with pytest.raises(GenerationError) as err:
            generate_scene(tight)
        assert "vehicle" in str(err.value)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            SceneSpec(grid=desk_grid(), counts={"vehicle": -1})
        with pytest.raises(ConfigurationError):
            SceneSpec(grid=desk_grid(), points_per_box=0)
        with pytest.raises(ConfigurationError) as err:
            SceneSpec(grid=desk_grid(), counts={"truck": 1})
        assert "truck" in str(err.value)
        with pytest.raises(ConfigurationError):
            SceneSpec(grid=desk_grid(), counts={"vehicle": 1}, size_priors={"pedestrian": (0.8, 0.8, 1.7)})


class TestCloudFormat:
    def test_roundtrip(self, tmp_path):
        r = np.random.Generator(np.random.PCG64(0))
        cloud = PointCloud(r.normal(size=(37, 4)).astype(np.float32))
        path = tmp_path / "c.bin"
        save_cloud(path, cloud)
        back = load_cloud(path)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_sixteen_bytes_is_one_point(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(np.array([1.0, 2.0, -1.0, 0.5], dtype="<f4").tobytes())
        cloud = load_cloud(path)
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [1.0, 2.0, -1.0, 0.5])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError) as err:
            load_cloud(path)
        assert "17" in str(err.value)


class TestLabelFormat:
    def test_roundtrip(self, tmp_path):
        boxes = [
            Box3D(x=1.234567890123, y=-2.5, z=-1.0, l=4.1, w=1.9, h=1.5, yaw=0.37, cls=0),
            Box3D(x=3.0, y=0.0, z=-1.2, l=0.8, w=0.8, h=1.6, yaw=-2.9, cls=1),
        ]
        path = tmp_path / "labels.json"
        save_labels(path, boxes)
        back = load_labels(path)
        assert len(back) == 2
        for a, b in zip(boxes, back):
            assert (a.x, a.y, a.z, a.l, a.w, a.h, a.yaw, a.cls) == (b.x, b.y, b.z, b.l, b.w, b.h, b.yaw, b.cls)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert load_labels(path) == []

    def test_yaw_normalized_on_load(self, tmp_path):
        path = tmp_path / "yaw.json"
        path.write_text(json.dumps([{"class": "vehicle", "center": [1, 2, -1], "size": [4, 2, 1.5], "yaw": 3.2}]))
        (box,) = load_labels(path)
        assert box.yaw == pytest.approx(3.2 - 2 * math.pi)

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"class": "tricycle", "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0}]))
        with pytest.raises(FormatError) as err:
            load_labels(path)
        assert "tricycle" in str(err.value) and "vehicle" in str(err.value)

    @pytest.mark.parametrize(
        "entry,detail",
        [
            ({"class": "vehicle", "center": [0, 0, 0], "yaw": 0}, "'size'"),
            ({"class": "vehicle", "center": [0, 0, 0], "size": [1, 1, 1]}, "'yaw'"),
            ({"class": "vehicle", "center": [0, 0], "size": [1, 1, 1], "yaw": 0}, "'center'"),
            ({"class": "vehicle", "center": [0, 0, "x"], "size": [1, 1, 1], "yaw": 0}, "'center'"),
            ({"class": "vehicle", "center": [0, 0, 0], "size": [1, 0, 1], "yaw": 0}, "positive"),
            ([0, 0, 0], "expected an object"),
        ],
        ids=["no-size", "no-yaw", "short-center", "center-str", "zero-size", "not-object"],
    )
    def test_malformed_entry_names_file_and_index(self, tmp_path, entry, detail):
        good = {"class": "pedestrian", "center": [1, 2, -1], "size": [0.8, 0.8, 1.7], "yaw": 0.1}
        path = tmp_path / "labels.json"
        path.write_text(json.dumps([good, entry]))
        with pytest.raises(FormatError) as err:
            load_labels(path)
        assert f"{path} entry 1" in str(err.value) and detail in str(err.value)


class TestManifest:
    def test_roundtrip_and_existence_check(self, tmp_path):
        manifest_path = write_dataset(tmp_path, default_config(), n_scenes=2, seed=0)
        manifest = load_manifest(manifest_path)
        assert len(manifest.entries) == 2
        (tmp_path / manifest.entries[0][0]).unlink()
        with pytest.raises(FormatError):
            load_manifest(manifest_path)

    def test_missing_scene_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"split": "val", "scenes": [{"cloud": "a.bin"}]}))
        with pytest.raises(FormatError):
            load_manifest(path)


@pytest.mark.parametrize(
    "loader,text,detail",
    [
        (load_labels, '[{"class": "vehicle",', "malformed JSON at line 1"),
        (load_manifest, '{"split": "val",\n "scenes": [\n', "malformed JSON at line 3"),
        (load_manifest, '[{"cloud": "a.bin", "labels": "a.json"}]', "expected a JSON object, got list"),
        (load_manifest, '{"scenes": [["a.bin", "a.json"]]}', "entry 0: needs 'cloud' and 'labels'"),
    ],
    ids=["labels-truncated", "manifest-truncated", "manifest-top-level-array", "manifest-entry-not-object"],
)
def test_malformed_json_is_format_error_naming_file(tmp_path, loader, text, detail):
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        loader(path)
    assert str(path) in str(err.value) and detail in str(err.value)


# one non-default value for every config leaf
NON_DEFAULT_CONFIG = {
    "grid": {"x_range": [-3.2, 3.2], "y_range": [0.0, 4.8], "z_range": [-2.0, 2.0], "pillar_size": 0.4},
    "model": {
        "channels": 32,
        "encoder": {"max_points_per_pillar": 16, "max_pillars": 9000},
        "csg": {"enabled": False, "hsb_layers": 3},
        "hsb": {"reduction_ratio": 4, "dw_kernel": 5, "se_reduction": 8},
        "ssm": {"state_dim": 4},
    },
    "head": {"top_k": 50, "score_threshold": 0.3, "reg_weight": 2.0, "gaussian_min_overlap": 0.5},
    "eval": {"iou_thresholds": {"vehicle": 0.7, "pedestrian": 0.5}},
    "train": {"lr": 0.01, "steps": 40},
    "data": {
        "counts": {"vehicle": 1, "cyclist": 3},
        "size_priors": {"vehicle": [4.0, 2.0, 1.5], "cyclist": [1.7, 0.7, 1.6]},
        "points_per_box": 32,
        "background_points": 0,
        "noise_sigma": 0.0,
        "min_center_gap": 2.5,
        "ground_offset": 0.25,
    },
}


def _config_leaves(obj, path=""):
    for f in fields(obj):
        value, name = getattr(obj, f.name), f"{path}.{f.name}" if path else f.name
        if is_dataclass(value):
            yield from _config_leaves(value, name)
        else:
            yield name, value


def _canonical(raw) -> str:
    return json.dumps(raw, sort_keys=True)


class TestConfig:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = config_from_dict({"grid": {"x_range": [0.0, 12.8], "y_range": [-6.4, 6.4], "z_range": [-3.0, 1.0]}})
        dumped = config_to_dict(cfg)
        assert dumped == config_to_dict(default_config())
        assert cfg.model.channels == 64
        assert cfg.model.ssm.state_dim == 8
        assert cfg.head.top_k == 100
        assert cfg.eval.iou_thresholds == {"vehicle": 0.5, "pedestrian": 0.25, "cyclist": 0.25}

    def test_echo_dump_roundtrip(self):
        cfg = default_config()
        assert config_to_dict(config_from_dict(config_to_dict(cfg))) == config_to_dict(cfg)

    def test_every_field_roundtrip(self):
        cfg = config_from_dict(json.loads(json.dumps(NON_DEFAULT_CONFIG)))
        defaults = dict(_config_leaves(default_config()))
        assert [name for name, value in _config_leaves(cfg) if value == defaults[name]] == []
        dumped = config_to_dict(cfg)
        assert _canonical(dumped) == _canonical(NON_DEFAULT_CONFIG)
        assert _canonical(config_to_dict(config_from_dict(dumped))) == _canonical(dumped)

    @pytest.mark.parametrize(
        "section,key,value,path",
        [
            ("data", "size_priors", {"vehicle": "abc"}, "data.size_priors.vehicle"),
            ("data", "size_priors", {"vehicle": 3}, "data.size_priors.vehicle"),
            ("data", "size_priors", {"vehicle": [1.0, 2.0]}, "data.size_priors.vehicle"),
            ("data", "size_priors", {"vehicle": [1.0, "x", 2.0]}, "data.size_priors.vehicle[1]"),
            ("data", "counts", {"vehicle": True}, "data.counts.vehicle"),
            ("data", "counts", {"vehicle": -1}, "data.counts"),
            ("data", "counts", {"truck": 1}, "data.counts.truck"),
            ("data", "size_priors", {"pedestrian": [0.8, 0.8, 1.7], "cyclist": [1.8, 0.6, 1.7]}, "data.size_priors"),
            ("data", "size_priors", {"vehicle": [0.0, 1.0, 1.0], "pedestrian": [0.8, 0.8, 1.7], "cyclist": [1.8, 0.6, 1.7]}, "data.size_priors.vehicle"),
            ("data", "points_per_box", 0, "data.points_per_box"),
            ("data", "background_points", -1, "data.background_points"),
            ("eval", "iou_thresholds", {"truck": 0.5}, "eval.iou_thresholds.truck"),
            ("head", "classes", ["vehicle", "pedestrian"], "unknown key head.classes"),
            ("head", "classes", ["pedestrian", "vehicle", "cyclist"], "unknown key head.classes"),
            ("model.ssm", "engine", "parallel", "unknown key model.ssm.engine"),
            ("model.ssm", "chunk_size", 0, "unknown key model.ssm.chunk_size"),
            ("model", "stages", 4, "unknown key model.stages"),
            ("model.ssm", "zoh_exact", True, "unknown key model.ssm.zoh_exact"),
            ("model.encoder", "activation", "relu", "unknown key model.encoder.activation"),
            ("model.hsb", "local_conv", True, "unknown key model.hsb.local_conv"),
            ("model.hsb", "residual", True, "unknown key model.hsb.residual"),
            ("model.hsb", "attention", True, "unknown key model.hsb.attention"),
            ("model.csg", "split_fraction", 0.5, "unknown key model.csg.split_fraction"),
            ("model.hsb", "attention_alt_residual", True, "unknown key model.hsb.attention_alt_residual"),
            ("model.encoder", "max_points_per_pillar", 0, "model.encoder.max_points_per_pillar"),
            ("model.encoder", "max_points_per_pillar", -1, "model.encoder.max_points_per_pillar"),
            ("model.encoder", "max_pillars", 0, "model.encoder.max_pillars"),
            ("train", "steps", 0, "train.steps"),
            ("model", "channels", 0, "model.channels"),
            ("model.hsb", "reduction_ratio", 0, "model.hsb.reduction_ratio"),
            ("model.hsb", "se_reduction", 0, "model.hsb.se_reduction"),
            ("model.hsb", "dw_kernel", 4, "model.hsb.dw_kernel"),
            ("model.hsb", "dw_kernel", -1, "model.hsb.dw_kernel"),
            ("model.ssm", "state_dim", 0, "model.ssm.state_dim"),
            ("model.csg", "hsb_layers", 0, "model.csg.hsb_layers"),
            ("model", "channels", 5, "model.channels"),
            ("model", "channels", 6, "model.hsb.reduction_ratio"),
        ],
        ids=[
            "prior-str", "prior-int", "prior-short", "prior-elem", "count-bool", "count-negative",
            "count-unknown-class", "prior-missing-for-counted", "prior-nonpositive", "points-per-box-zero",
            "background-negative", "iou-unknown-class", "classes-subset", "classes-order",
            "removed-engine", "removed-chunk-size", "removed-stages", "removed-zoh-exact", "removed-activation",
            "removed-local-conv", "removed-residual", "removed-attention", "removed-split-fraction", "removed-alt-residual",
            "points-per-pillar-zero", "points-per-pillar-negative", "max-pillars-zero", "train-steps-zero",
            "channels-zero", "reduction-ratio-zero", "se-reduction-zero", "dw-kernel-even", "dw-kernel-negative",
            "state-dim-zero", "hsb-layers-zero", "split-improper", "branch-indivisible",
        ],
    )
    def test_bad_value_rejected_at_load_with_path(self, section, key, value, path):
        raw = config_to_dict(default_config())
        node = raw
        for part in section.split("."):
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigurationError) as err:
            config_from_dict(raw)
        assert path in str(err.value)

    def test_missing_grid_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            config_from_dict({})
        assert "grid" in str(err.value)

    def test_unknown_key_names_dotted_path(self):
        raw = config_to_dict(default_config())
        raw["model"]["hsb"]["attn"] = True
        with pytest.raises(ConfigurationError) as err:
            config_from_dict(raw)
        assert "model.hsb.attn" in str(err.value)

    def test_type_mismatch_names_path(self):
        raw = config_to_dict(default_config())
        raw["grid"]["pillar_size"] = "wide"
        with pytest.raises(ConfigurationError) as err:
            config_from_dict(raw)
        assert "grid.pillar_size" in str(err.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {"x_range": [0, 12.8,]}}')
        with pytest.raises(ConfigurationError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_csg_toggle_controls_structure(self):
        raw = config_to_dict(default_config())
        raw["model"]["channels"] = 16
        raw["model"]["ssm"]["state_dim"] = 2
        raw["model"]["csg"]["enabled"] = False
        names = [n for n, _ in build_model(config_from_dict(raw), seed=0).named_params()]
        assert not any(".csg." in n for n in names)
        assert any(".hsb0." in n for n in names)


# model-section overrides -> (parameter count, sha256 of the ordered
# [[name, shape], ...] manifest) of the seed-0 default model (C=64); the .pmw
# layout is this manifest followed by the values in the same order
MANIFEST_PINS = {
    "default": ({}, 270, "e76b5d2255dcb83d50cbf38fc1a7774fb3db4adf8a272c53a8ac5288b4a575d6"),
    "csg_off": ({"csg": {"enabled": False}}, 254, "c21f82c68b738dae7802a47928f1f199680567fc45fe270454d296a60d533381"),
}


class TestWeightsManifest:
    @pytest.mark.parametrize("variant", list(MANIFEST_PINS))
    def test_manifest_pinned(self, variant):
        overrides, count, digest = MANIFEST_PINS[variant]
        raw = config_to_dict(default_config())
        for section, values in overrides.items():
            raw["model"][section].update(values)
        named = build_model(config_from_dict(raw), seed=0).named_params()
        manifest = [(name, list(p.value.shape)) for name, p in named]
        assert len(manifest) == count
        assert len({name for name, _ in manifest}) == count
        assert hashlib.sha256(json.dumps(manifest).encode()).hexdigest() == digest
