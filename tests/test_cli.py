"""Command-line contract tests: exit codes, one config read per command,
pipeline outputs, determinism, weights round trip, bench rows and digests,
a closed stdout, and the README's CLI examples and Layout."""

import hashlib
import io
import json
import logging
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pillarmamba import cli
from pillarmamba import metrics as metrics_mod
from pillarmamba.boxes import CLASS_IDS, CLASS_NAMES, Detection
from pillarmamba.config import config_from_dict, config_to_dict, default_config
from pillarmamba.cross_scan import DIRECTIONS
from pillarmamba.data_io import box_record, detection_record, load_cloud, load_labels
from pillarmamba.model import WEIGHTS_MAGIC, build_model, load_weights, save_weights
from pillarmamba.pillars import voxelize
from pillarmamba.errors import FormatError


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory) -> str:
    raw = config_to_dict(default_config())
    raw["model"]["channels"] = 16
    raw["model"]["ssm"]["state_dim"] = 2
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, tiny_cfg_path):
    out = tmp_path_factory.mktemp("data")
    rc = cli.main(["gen", "--config", tiny_cfg_path, "--out", str(out), "--scenes", "2", "--seed", "3"])
    assert rc == 0
    return out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(tmp_path):
    for argv in (
        ["gen", "--out", str(tmp_path / "x"), "--frobnicate"],
        ["forward", "--manifest", "manifest.json", "--out", str(tmp_path / "x"), "--workers", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    assert not (tmp_path / "x").exists()


def test_gen_writes_declared_outputs(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert len(manifest["scenes"]) == 2
    for entry in manifest["scenes"]:
        assert (dataset / entry["cloud"]).exists()
        assert (dataset / entry["labels"]).exists()
    load_cloud(dataset / manifest["scenes"][0]["cloud"])
    load_labels(dataset / manifest["scenes"][0]["labels"])


def test_forward_then_eval_pipeline(dataset, tiny_cfg_path, tmp_path, capsys, monkeypatch):
    dets = tmp_path / "dets"
    rc = cli.main(
        ["forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"), "--out", str(dets), "--seed", "1"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["command"] == "forward"
    assert (dets / "dets_0000.json").exists() and (dets / "dets_0001.json").exists()

    calls = []
    match_scene = metrics_mod.match_scene

    def counting_match_scene(*args, **kwargs):
        calls.append(1)
        return match_scene(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "match_scene", counting_match_scene)
    rc = cli.main(
        ["eval", "--config", tiny_cfg_path, "--dets", str(dets), "--manifest", str(dataset / "manifest.json")]
    )
    assert rc == 0
    assert len(calls) == 2 * 3  # each scene matched once per class
    metrics = json.loads((dets / "metrics.json").read_text())
    assert set(metrics["per_class"]) == {"vehicle", "pedestrian", "cyclist"}
    for entry in metrics["per_class"].values():
        assert entry["ap_r40"] is None or 0.0 <= entry["ap_r40"] <= 1.0
    # per-class AP is the library's ap_r40 on the same detections
    manifest = json.loads((dataset / "manifest.json").read_text())["scenes"]
    dets_per_scene = [
        cli._detections_from_payload(json.loads(path.read_text()), path) for path in sorted(dets.glob("dets_*.json"))
    ]
    gts_per_scene = [load_labels(dataset / entry["labels"]) for entry in manifest]
    thresholds = {CLASS_IDS[name]: thr for name, thr in default_config().eval.iou_thresholds.items()}
    expected = metrics_mod.ap_r40(dets_per_scene, gts_per_scene, thresholds)
    assert {name: entry["ap_r40"] for name, entry in metrics["per_class"].items()} == {
        name: expected[CLASS_IDS[name]] for name in metrics["per_class"]
    }


def test_eval_per_class_ap_is_ap_r40(dataset, tiny_cfg_path, tmp_path):
    # a dataset without cyclists, detections that hit every other GT, false positives of every class, and the
    # config's thresholds listed against class-id order: eval reports ap_r40's values and averages them in id order
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    entries = json.loads((data / "manifest.json").read_text())["scenes"]
    gts_per_scene, dets_per_scene = [], []
    for i, entry in enumerate(entries):
        gts = [b for b in load_labels(data / entry["labels"]) if b.cls != CLASS_IDS["cyclist"]]
        (data / entry["labels"]).write_text(json.dumps([box_record(b) for b in gts]))
        dets = [Detection(replace(b, x=b.x + 2.0 * (j % 2)), 0.9 - 0.05 * j) for j, b in enumerate(gts)]
        dets += [Detection(replace(gts[0], x=gts[0].x + 5.0, cls=c), 0.3 + 0.1 * c) for c in CLASS_IDS.values()]
        (tmp_path / f"dets_{i:04d}.json").write_text(json.dumps({"detections": [detection_record(d) for d in dets]}))
        gts_per_scene.append(gts)
        dets_per_scene.append(dets)
    raw = json.loads(Path(tiny_cfg_path).read_text())
    raw["eval"]["iou_thresholds"] = dict(reversed(list(raw["eval"]["iou_thresholds"].items())))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    argv = ["eval", "--config", str(cfg_path), "--dets", str(tmp_path), "--manifest", str(data / "manifest.json")]
    assert cli.main(argv) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    thresholds = {CLASS_IDS[name]: thr for name, thr in raw["eval"]["iou_thresholds"].items()}
    expected = metrics_mod.ap_r40(dets_per_scene, gts_per_scene, thresholds)
    assert {name: entry["ap_r40"] for name, entry in metrics["per_class"].items()} == {
        CLASS_NAMES[cls]: ap for cls, ap in expected.items()
    }
    assert expected[CLASS_IDS["cyclist"]] is None and 0.0 < expected[CLASS_IDS["vehicle"]] < 1.0
    assert metrics["mean_ap_r40"] == float(np.mean([ap for ap in expected.values() if ap is not None]))


def test_pipeline_determinism_byte_identical(tiny_cfg_path, tmp_path):
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        assert cli.main(["gen", "--config", tiny_cfg_path, "--out", str(base / "data"), "--scenes", "2", "--seed", "11"]) == 0
        assert cli.main(
            ["forward", "--config", tiny_cfg_path, "--manifest", str(base / "data/manifest.json"), "--out", str(base / "dets"), "--seed", "2"]
        ) == 0
        assert cli.main(
            ["eval", "--config", tiny_cfg_path, "--dets", str(base / "dets"), "--manifest", str(base / "data/manifest.json")]
        ) == 0
        outputs.append((base / "dets/metrics.json").read_bytes())
    assert outputs[0] == outputs[1]


SUBCOMMANDS = ["gen", "forward", "gradcheck", "train-toy", "eval", "bench", "diagnose-scan"]
# id -> (config written, None for no file; error type; text the message names, None for the file path)
BAD_CONFIGS = {
    "malformed": ({"grid": 3}, "ConfigurationError", "grid"),
    "missing": (None, "FileNotFoundError", None),
    # well-typed, but no model can be built from it: checked at load, before any command runs
    "contradictory": (
        {"grid": config_to_dict(default_config())["grid"], "model": {"channels": 6, "hsb": {"dw_kernel": 4}}},
        "ConfigurationError",
        "model.hsb.dw_kernel",
    ),
    # well-formed JSON numbers that would train on NaN or silently decode no detection
    "nan-lr": ({"grid": config_to_dict(default_config())["grid"], "train": {"lr": float("nan")}}, "ConfigurationError", "train.lr"),
    "zero-top-k": ({"grid": config_to_dict(default_config())["grid"], "head": {"top_k": 0}}, "ConfigurationError", "head.top_k"),
    "nan-score-threshold": (
        {"grid": config_to_dict(default_config())["grid"], "head": {"score_threshold": float("nan")}},
        "ConfigurationError",
        "head.score_threshold",
    ),
    # a threshold no vehicle can reach, and grids whose cell count is infinite or NaN
    "iou-threshold-above-one": (
        {"grid": config_to_dict(default_config())["grid"], "eval": {"iou_thresholds": {"vehicle": 1.5}}},
        "ConfigurationError",
        "eval.iou_thresholds.vehicle",
    ),
    "infinite-grid-range": (
        {"grid": {**config_to_dict(default_config())["grid"], "x_range": [0.0, float("inf")]}},
        "ConfigurationError",
        "grid.x_range",
    ),
    "nan-pillar-size": (
        {"grid": {**config_to_dict(default_config())["grid"], "pillar_size": float("nan")}},
        "ConfigurationError",
        "grid.pillar_size",
    ),
}


def test_forward_reports_the_voxelizer_drops_summed_over_its_scenes(dataset, tiny_cfg_path, tmp_path, capsys):
    raw = json.loads(Path(tiny_cfg_path).read_text())
    raw["model"]["encoder"].update(max_points_per_pillar=2, max_pillars=300)
    cfg_path = tmp_path / "capped.json"
    cfg_path.write_text(json.dumps(raw))
    argv = ["forward", "--config", str(cfg_path), "--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path / "dets")]
    assert cli.main(argv) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    cfg = config_from_dict(raw)
    enc = cfg.model.encoder
    expected = {"dropped_out_of_range": 0, "dropped_over_capacity": 0, "dropped_pillars": 0}
    for entry in json.loads((dataset / "manifest.json").read_text())["scenes"]:
        cloud = load_cloud(dataset / entry["cloud"])
        counters = voxelize(cloud, cfg.grid, enc.max_points_per_pillar, enc.max_pillars).counters
        expected = {key: n + counters[key] for key, n in expected.items()}
    assert {key: metrics[key] for key in expected} == expected
    assert expected["dropped_over_capacity"] > 0 and expected["dropped_pillars"] > 0


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_bad_config_fails_every_subcommand(command, case, dataset, tmp_path, capsys):
    raw, error_type, detail = BAD_CONFIGS[case]
    cfg_path = tmp_path / "cfg.json"
    if raw is not None:
        cfg_path.write_text(json.dumps(raw))
    dets = tmp_path / "dets"
    dets.mkdir()
    for i in range(2):
        (dets / f"dets_{i:04d}.json").write_text(json.dumps({"scene": f"scene_{i:04d}", "detections": []}))
    out = tmp_path / "out"
    argv = {
        "gen": ["--out", str(out), "--scenes", "1"],
        "forward": ["--manifest", str(dataset / "manifest.json"), "--out", str(out)],
        "gradcheck": ["--seeds", "1"],
        "train-toy": ["--scene", str(dataset / "scene_0000.bin"), "--steps", "1", "--out", str(out)],
        "eval": ["--dets", str(dets), "--manifest", str(dataset / "manifest.json"), "--out", str(out)],
        "bench": ["--repeat", "1", "--out", str(out)],
        "diagnose-scan": ["--grid", "4x4", "--out", str(out)],
    }[command]
    assert cli.main([command, "--config", str(cfg_path), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no run report
    err = json.loads(captured.err.strip().splitlines()[-1])["error"]
    assert err["type"] == error_type
    assert (detail or str(cfg_path)) in err["message"]
    assert not out.exists()


def test_forward_reads_config_once_and_builds_one_model(dataset, tiny_cfg_path, tmp_path, monkeypatch):
    calls = {"load_config": 0, "build_model": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    counting("load_config", cli.load_config)
    counting("build_model", cli.build_model)
    argv = ["forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == {"load_config": 1, "build_model": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dets_0000.json", "dets_0001.json"]


def test_train_toy_writes_loadable_weights(dataset, tiny_cfg_path, tmp_path):
    weights = tmp_path / "w.pmw"
    rc = cli.main(
        ["train-toy", "--config", tiny_cfg_path, "--scene", str(dataset / "scene_0000.bin"), "--steps", "2", "--out", str(weights)]
    )
    assert rc == 0
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    model = build_model(cfg, seed=0)
    load_weights(weights, model)
    # the whole chain, gen -> train-toy -> forward -> eval, in one process
    manifest, dets = str(dataset / "manifest.json"), tmp_path / "dets"
    argv = ["forward", "--config", tiny_cfg_path, "--manifest", manifest, "--weights", str(weights), "--out", str(dets)]
    assert cli.main(argv) == 0
    assert cli.main(["eval", "--config", tiny_cfg_path, "--dets", str(dets), "--manifest", manifest]) == 0
    assert set(json.loads((dets / "metrics.json").read_text())["per_class"]) == set(CLASS_NAMES)


def test_train_toy_reports_the_loss_range_of_its_last_tenth(dataset, tiny_cfg_path, tmp_path, capsys, monkeypatch):
    # 20 steps: the run report carries min and max of the last 2 losses
    losses = [float(20 - k) for k in range(19)] + [4.0]
    monkeypatch.setattr(cli, "train_toy", lambda *a, **k: list(losses))
    argv = ["train-toy", "--config", tiny_cfg_path, "--scene", str(dataset / "scene_0000.bin"), "--steps", "20"]
    assert cli.main(argv + ["--out", str(tmp_path / "w.pmw")]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert (metrics["tail_steps"], metrics["tail_loss_min"], metrics["tail_loss_max"]) == (2, 2.0, 4.0)
    assert (metrics["first_loss"], metrics["final_loss"]) == (20.0, 4.0)


def test_train_toy_non_finite_loss_exits_1_without_weights(dataset, tiny_cfg_path, tmp_path, capsys):
    weights = tmp_path / "w.pmw"
    argv = ["train-toy", "--config", tiny_cfg_path, "--scene", str(dataset / "scene_0000.bin")]
    assert cli.main([*argv, "--lr", "1e30", "--steps", "3", "--out", str(weights)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "FloatingPointError" and "step 1" in err["message"]
    assert not weights.exists()


@pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
def test_train_toy_bad_lr_exits_1_before_training(dataset, tiny_cfg_path, tmp_path, capsys, monkeypatch, lr):
    # --lr takes train.lr's rule: no step runs and no weights are written
    calls = []
    monkeypatch.setattr(cli, "train_toy", lambda *a, **k: calls.append(k) or [1.0])
    weights = tmp_path / "w.pmw"
    argv = ["train-toy", "--config", tiny_cfg_path, "--scene", str(dataset / "scene_0000.bin"), "--steps", "3"]
    assert cli.main([*argv, "--lr", lr, "--out", str(weights)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "ConfigurationError" and "train.lr" in err["message"]
    assert calls == [] and not weights.exists()


def test_weights_model_mismatch_detected(tiny_cfg_path, tmp_path):
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    model = build_model(cfg, seed=0)
    path = tmp_path / "w.pmw"
    save_weights(path, model)
    raw = config_to_dict(cfg)
    raw["model"]["channels"] = 32
    other = build_model(config_from_dict(raw), seed=0)
    with pytest.raises(FormatError) as err:
        load_weights(path, other)
    assert "does not match" in str(err.value)


# Older builds named each parameter by hand. These rules map a field path to that name, e.g.
# backbone.stages.0.hsbs.0.ss2d.scan.w_b -> backbone.stage0.csg.hsb0.ss2d.w_b and head.hm_w -> head.heatmap.weight.
HAND_WRITTEN_NAME_RULES = (
    (r"stages\.(\d+)\.hsbs\.(\d+)\.", r"stage\1.csg.hsb\2."),
    (r"stages\.(\d+)\.(\d+)\.", r"stage\1.hsb\2."),
    (r"stages\.(\d+)\.", r"stage\1.csg."),
    (r"down_convs\.(\d+)\.", r"down\1."),
    (r"\.scan\.", "."),
    (r"(\w\w)_w$|\.0$", r"\1.weight"),
    (r"(\w\w)_b$|\.1$", r"\1.bias"),
    (r"_(gamma|beta)$", r".\1"),
    (r"^head\.hm\.", "head.heatmap."),
    (r"^head\.reg\.", "head.regression."),
)
# sha256 of the seed-0 default model's [[name, shape], ...] manifest under the hand-written names
HAND_WRITTEN_MANIFEST_SHA256 = "e76b5d2255dcb83d50cbf38fc1a7774fb3db4adf8a272c53a8ac5288b4a575d6"


def _hand_written_name(path: str) -> str:
    for pattern, repl in HAND_WRITTEN_NAME_RULES:
        path = re.sub(pattern, repl, path)
    return path


def _split_conv_name(path: str) -> str:
    """The field path a conv parameter had while each conv layer kept two fields: <layer>.0 -> <layer>_w and
    <layer>.1 -> <layer>_b for the HSB, CSG, SS2D and head convs; the backbone's own convs were pairs already."""
    layers = "conv_down|conv_up|dw_inner|dw_outer|in_proj|out_proj|stem|hm|reg"
    return re.sub(rf"\.({layers})\.([01])$", lambda m: f".{m[1]}_{'wb'[int(m[2])]}", path)


def _renamed_weights(path, model, rename, per_direction: bool = False) -> list[str]:
    """A .pmw of the model's values under older names: ``rename`` of each field path, with one stacked SS2D
    projection set (``...ss2d.w_b`` of shape (4, D, M)) or, when ``per_direction``, one per direction
    (``...ss2d.row_forward.w_b`` of shape (D, M)). Returns the names written."""
    entries, values = [], []
    for name, p in model.named_params():
        old = rename(name)
        if per_direction and ".scan." in name:
            stem, _, leaf = old.rpartition(".")
            entries += [{"name": f"{stem}.{d}.{leaf}", "shape": list(p.shape[1:])} for d in DIRECTIONS]
        else:
            entries.append({"name": old, "shape": list(p.shape)})
        values.append(p.value.data.astype("<f8").tobytes())
    blob = json.dumps({"params": entries}, sort_keys=True).encode()
    path.write_bytes(WEIGHTS_MAGIC + struct.pack("<I", len(blob)) + blob + b"".join(values))
    return [e["name"] for e in entries]


def test_per_direction_weights_are_rejected(dataset, tiny_cfg_path, tmp_path, capsys):
    # no conversion from older names: hand-written ones, stacked or per direction, or the field paths from before
    # each conv layer became one pair. The field paths are missing from the file and the old names are extra; the
    # hand-written rules above rebuild the old names exactly
    named = build_model(default_config(), seed=0).named_params()
    manifest = [(_hand_written_name(name), list(p.shape)) for name, p in named]
    assert hashlib.sha256(json.dumps(manifest).encode()).hexdigest() == HAND_WRITTEN_MANIFEST_SHA256
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    ours = [name for name, _ in build_model(cfg, seed=0).named_params()]
    variants = [
        (_hand_written_name, False, "'backbone.down_convs.0.0'", "'backbone.down0.weight'"),
        (_hand_written_name, True, "'backbone.down_convs.0.0'", "'backbone.down0.weight'"),
        (_split_conv_name, False, "'backbone.stages.0.conv_down.0'", "'backbone.stages.0.conv_down_b'"),
    ]
    for i, (rename, per_direction, a_missing, an_extra) in enumerate(variants):
        path = tmp_path / f"old{i}.pmw"
        written = _renamed_weights(path, build_model(cfg, seed=0), rename, per_direction)
        with pytest.raises(FormatError) as err:
            load_weights(path, build_model(cfg, seed=0))
        missing, extra = re.search(r"missing=(\[.*?\]) extra=(\[.*?\])", str(err.value)).groups()
        assert missing == str(sorted(set(ours) - set(written))[:5]) and a_missing in missing
        assert extra == str(sorted(set(written) - set(ours))[:5]) and an_extra in extra
        out = tmp_path / f"dets{i}"
        argv = ["forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"), "--out", str(out)]
        assert cli.main([*argv, "--weights", str(path)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "FormatError" and "does not match this model" in err["message"]
        assert not out.exists()


def test_weights_roundtrip_exact_for_f32(tiny_cfg_path, tmp_path):
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    model = build_model(cfg, seed=7)
    path = tmp_path / "w.pmw"
    save_weights(path, model)
    clone = build_model(cfg, seed=8)
    load_weights(path, clone)
    for (_, a), (_, b) in zip(model.named_params(), clone.named_params()):
        np.testing.assert_array_equal(a.value.data, b.value.data)


def _corrupt_weights(path, case: str) -> None:
    """Rewrite a saved .pmw: 8 bytes past its end, a NaN or inf in the middle payload value, or cut after 200 values."""
    data = path.read_bytes()
    header = 8 + struct.unpack("<I", data[4:8])[0]
    values = np.frombuffer(data[header:], dtype="<f8").copy()
    if case == "trailing-bytes":
        data += bytes(8)
    elif case == "truncated":
        data = data[: header + 8 * 200]
    else:
        values[values.size // 2] = np.nan if case == "nan" else -np.inf
        data = data[:header] + values.tobytes()
    path.write_bytes(data)


@pytest.mark.parametrize(
    "case, detail",
    [("trailing-bytes", "trailing bytes"), ("nan", "non-finite"), ("inf", "non-finite"), ("truncated", "truncated")],
    ids=["trailing-bytes", "nan", "inf", "truncated"],
)
def test_bad_weights_payload_is_format_error_and_writes_nothing(tiny_cfg_path, tmp_path, case, detail):
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    path = tmp_path / "w.pmw"
    save_weights(path, build_model(cfg, seed=7))
    _corrupt_weights(path, case)
    clone = build_model(cfg, seed=8)
    before = [p.value.data.copy() for p in clone.params()]
    with pytest.raises(FormatError) as err:
        load_weights(path, clone)
    assert str(path) in str(err.value) and detail in str(err.value)
    for b, p in zip(before, clone.params()):
        assert p.value.data.tobytes() == b.tobytes()


def test_forward_with_nan_weights_exits_1_without_outputs(dataset, tiny_cfg_path, tmp_path, capsys):
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    path = tmp_path / "w.pmw"
    save_weights(path, build_model(cfg, seed=7))
    _corrupt_weights(path, "nan")
    argv = ["forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path / "dets")]
    assert cli.main([*argv, "--weights", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "FormatError" and "non-finite" in err["message"]
    assert not (tmp_path / "dets").exists()


def _length_prefixed(manifest: bytes) -> bytes:
    return struct.pack("<I", len(manifest)) + manifest


@pytest.mark.parametrize(
    "header",
    [
        b"\x05\x00",
        _length_prefixed(b"{not json"),
        _length_prefixed(b'{"weights": []}'),
        _length_prefixed(b'[{"name": "x", "shape": [1]}]'),
        _length_prefixed(b'{"params": [["x", [1]]]}'),
    ],
    ids=["short-header", "bad-json", "no-params", "top-level-list", "non-object-entry"],
)
def test_malformed_weights_header_is_format_error(dataset, tiny_cfg_path, tmp_path, capsys, header):
    path = tmp_path / "w.pmw"
    path.write_bytes(WEIGHTS_MAGIC + header)
    rc = cli.main(
        ["forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path / "dets"), "--weights", str(path)]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "FormatError"
    assert str(path) in err["message"]


def test_eval_missing_dets_is_runtime_error(dataset, tiny_cfg_path, tmp_path, capsys):
    rc = cli.main(
        ["eval", "--config", tiny_cfg_path, "--dets", str(tmp_path), "--manifest", str(dataset / "manifest.json")]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "FormatError"


@pytest.mark.parametrize(
    "patch,detail",
    [
        ({"center": [1.0, 2.0]}, "'center'"),
        ({"class": "truck"}, "truck"),
        ({"score": None}, "'score'"),
        ({"score": 1.5}, "'score'"),
    ],
    ids=["short-center", "unknown-class", "no-score", "score-above-1"],
)
def test_eval_malformed_dets_is_runtime_error(dataset, tiny_cfg_path, tmp_path, capsys, patch, detail):
    good = {"class": "vehicle", "center": [1.0, 2.0, -2.0], "size": [4.0, 2.0, 1.5], "yaw": 0.0, "score": 0.5}
    bad = {k: v for k, v in {**good, **patch}.items() if v is not None}
    (tmp_path / "dets_0000.json").write_text(json.dumps({"scene": "scene_0000", "detections": [good, bad]}))
    (tmp_path / "dets_0001.json").write_text(json.dumps({"scene": "scene_0001", "detections": []}))
    rc = cli.main(
        ["eval", "--config", tiny_cfg_path, "--dets", str(tmp_path), "--manifest", str(dataset / "manifest.json")]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "FormatError"
    assert "dets_0000.json entry 1" in err["error"]["message"] and detail in err["error"]["message"]


def test_eval_reports_degenerate_detections(dataset, tiny_cfg_path, tmp_path, capsys):
    good = {"class": "vehicle", "center": [1.0, 2.0, -2.0], "size": [4.0, 2.0, 1.5], "yaw": 0.0, "score": 0.5}
    speck = {**good, "size": [1e-5, 1e-5, 1e-5], "score": 0.4}  # volume 1e-15: IoU 0 against every box
    (tmp_path / "dets_0000.json").write_text(json.dumps({"scene": "scene_0000", "detections": [good, speck]}))
    (tmp_path / "dets_0001.json").write_text(json.dumps({"scene": "scene_0001", "detections": [good]}))
    rc = cli.main(
        ["eval", "--config", tiny_cfg_path, "--dets", str(tmp_path), "--manifest", str(dataset / "manifest.json")]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["metrics"]["degenerate_detections"] == 1
    assert "degenerate_detections" not in json.loads((tmp_path / "metrics.json").read_text())


@pytest.mark.parametrize("site", ["manifest", "labels", "dets", "occupancy"])
def test_malformed_json_input_is_format_error(dataset, tiny_cfg_path, tmp_path, capsys, site):
    # every JSON input file the CLI reads reports a decode error with the file and line
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    dets = tmp_path / "dets"
    dets.mkdir()
    for i in range(2):
        (dets / f"dets_{i:04d}.json").write_text(json.dumps({"scene": f"scene_{i:04d}", "detections": []}))
    broken = {
        "manifest": data / "manifest.json",
        "labels": data / "scene_0000.json",
        "dets": dets / "dets_0000.json",
        "occupancy": tmp_path / "occ.json",
    }[site]
    broken.write_text('[\n  {"class": "vehicle",\n')
    if site == "occupancy":
        argv = ["diagnose-scan", "--grid", "4x4", "--occupancy", str(broken)]
    else:
        argv = ["eval", "--config", tiny_cfg_path, "--dets", str(dets), "--manifest", str(data / "manifest.json")]
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "FormatError"
    assert str(broken) in err["message"] and "malformed JSON at line 3" in err["message"]


def test_bench_outputs_and_repeat_stability(tmp_path, capsys):
    raw = config_to_dict(default_config())
    raw["grid"] = {"x_range": [0.0, 3.2], "y_range": [-1.6, 1.6], "z_range": [-3.0, 1.0], "pillar_size": 0.2}
    raw["model"]["channels"] = 8
    raw["model"]["ssm"]["state_dim"] = 2
    cfg_path = tmp_path / "bench_cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli.main(["bench", "--config", str(cfg_path), "--repeat", "2", "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "bench.json").read_text())["rows"]
    assert [r["name"] for r in rows] == ["csg", "no_csg"]
    keys = {"section", "name", "repeat", "best_s", "mean_s", "stage1_mac_count", "output_digest"}
    for r in rows:
        assert r["section"] == "backbone"
        assert set(r) == keys
        assert r["repeat"] == 2
        assert r["mean_s"] >= r["best_s"] > 0
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("argv", [["--form", "parallel"], ["--repeat", "0"], ["--repeat", "-1"]])
def test_bench_usage_errors_exit_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--out", str(tmp_path), *argv])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--scenes", "0"],
        ["gen", "--scenes", "-2"],
        ["gradcheck", "--seeds", "0"],
        ["train-toy", "--scene", "scene.bin", "--steps", "0"],
    ],
    ids=[
        "gen-scenes-0", "gen-scenes-negative", "gradcheck-seeds-0", "train-toy-steps-0",
    ],
)
def test_count_flag_usage_errors_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *([] if argv[0] == "gradcheck" else ["--out", str(out)])])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_scan_with_occupancy(tmp_path, capsys):
    occ = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    occ_path = tmp_path / "occ.json"
    occ_path.write_text(json.dumps(occ))
    out_path = tmp_path / "diag.json"
    rc = cli.main(["diagnose-scan", "--grid", "4x4", "--occupancy", str(occ_path), "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    row = report["directions"]["row_forward"]
    assert row["neighbor_distance_histogram"] == {"1": 12, "4": 12}
    assert row["empty_runs"]["max_empty_run"] == 9  # cells 1..9 between the two occupied

    rc = cli.main(["diagnose-scan", "--grid", "4x4", "--occupancy", str(occ_path)])
    assert rc == 0


@pytest.mark.parametrize(
    "occ",
    [
        [[1, 0, 0, 0], [0, "x", 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 2.5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, None, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [1, 0, 0, 0],
        {"occupancy": [[1]]},
    ],
    ids=["string", "fraction", "two", "null", "ragged", "flat", "object"],
)
def test_diagnose_scan_bad_occupancy_entries(occ, tmp_path, capsys):
    occ_path = tmp_path / "occ.json"
    occ_path.write_text(json.dumps(occ))
    rc = cli.main(["diagnose-scan", "--grid", "4x4", "--occupancy", str(occ_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "FormatError"
    assert str(occ_path) in err["error"]["message"]


def test_diagnose_scan_boolean_occupancy(tmp_path, capsys):
    occ_path = tmp_path / "occ.json"
    occ_path.write_text(json.dumps([[True, False], [False, 0]]))
    assert cli.main(["diagnose-scan", "--grid", "2x2", "--occupancy", str(occ_path)]) == 0


def test_diagnose_scan_bad_grid(capsys):
    for grid in ["16by16", "0x4", "4x0", "0x0", "3x-4"]:
        rc = cli.main(["diagnose-scan", "--grid", grid])
        assert rc == 1, grid
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "FormatError"
        assert grid in err["error"]["message"]


REPORT_KEYS = {"command", "config_digest", "seed", "wall_time_s", "outputs", "metrics"}
PROCESS_KEYS = {"peak_rss_mb", "minor_page_faults"}


def test_run_report_schema(tiny_cfg_path, tmp_path, capsys):
    rc = cli.main(["gen", "--config", tiny_cfg_path, "--out", str(tmp_path / "d"), "--scenes", "1", "--seed", "9"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == REPORT_KEYS | PROCESS_KEYS
    assert report["seed"] == 9
    assert report["config_digest"]
    assert report["peak_rss_mb"] > 0 and isinstance(report["minor_page_faults"], int)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_run_report_carries_the_process_cost(command, dataset, tiny_cfg_path, tmp_path, capsys):
    argv = {
        "gen": ["--out", str(tmp_path / "d"), "--scenes", "1"],
        "forward": ["--manifest", str(dataset / "manifest.json"), "--out", str(tmp_path / "dets")],
        "gradcheck": ["--seeds", "1"],
        "train-toy": ["--scene", str(dataset / "scene_0000.bin"), "--steps", "1", "--out", str(tmp_path / "w.pmw")],
        "eval": ["--dets", str(tmp_path / "dets"), "--manifest", str(dataset / "manifest.json")],
        "bench": ["--repeat", "1", "--out", str(tmp_path)],
        "diagnose-scan": ["--grid", "4x4", "--out", str(tmp_path / "scan.json")],
    }[command]
    if command == "eval":
        (tmp_path / "dets").mkdir()
        for i in range(2):
            (tmp_path / "dets" / f"dets_{i:04d}.json").write_text(json.dumps({"detections": []}))
    assert cli.main([command, "--config", tiny_cfg_path, *argv]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == REPORT_KEYS | PROCESS_KEYS
    assert report["peak_rss_mb"] > 0 and report["minor_page_faults"] > 0


def test_run_report_without_resource_omits_the_process_cost(tiny_cfg_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "resource", None)  # as on a platform without the module
    assert cli.main(["diagnose-scan", "--config", tiny_cfg_path, "--grid", "4x4", "--out", str(tmp_path / "s.json")]) == 0
    assert set(json.loads(capsys.readouterr().out.strip().splitlines()[-1])) == REPORT_KEYS


@pytest.mark.parametrize("grid, code", [("4x4", 0), ("0x4", 1)], ids=["exit0", "exit1"])
def test_main_leaves_the_numpy_error_state_as_it_found_it(grid, code, capsys):
    # the command runs with overflow, invalid and divide warnings off; the caller's settings come back either way
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        before = np.geterr()
        assert cli.main(["diagnose-scan", "--grid", grid]) == code
        assert np.geterr() == before


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError("Broken pipe")


def test_closed_stdout_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    # with --out, the run report is the command's only write to stdout
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["diagnose-scan", "--grid", "4x4", "--out", str(tmp_path / "scan.json")]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "BrokenPipeError"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_1_with_only_the_error_line(unbuffered, tmp_path):
    # the read end is closed before the command starts, so its one write to stdout, the run report, fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = [sys.executable, "-m", "pillarmamba.cli", "diagnose-scan", "--grid", "4x4", "--out", str(tmp_path / "s.json")]
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    try:  # from src/, which -m puts on the path
        proc = subprocess.run(
            argv, cwd=Path(cli.__file__).parents[1], env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr  # no traceback, no "Exception ignored" at exit
    assert json.loads(lines[0])["error"]["type"] == "BrokenPipeError"


def test_main_sets_only_the_package_logger(capsys, monkeypatch):
    # the root logger belongs to the embedding program; PILLARMAMBA_LOG is read again on every call
    root, pkg = logging.getLogger(), logging.getLogger("pillarmamba")
    root_before, pkg_level = (list(root.handlers), root.level), pkg.level
    try:
        monkeypatch.setenv("PILLARMAMBA_LOG", "error")
        assert cli.main(["diagnose-scan", "--grid", "4x4"]) == 0
        assert (root.handlers, root.level) == root_before
        assert pkg.level == logging.ERROR
        handlers = list(pkg.handlers)
        assert handlers.count(cli._HANDLER) == 1
        capsys.readouterr()

        monkeypatch.setenv("PILLARMAMBA_LOG", "debug")
        assert cli.main(["diagnose-scan", "--grid", "0x4"]) == 1
        assert pkg.level == logging.DEBUG
        assert "DEBUG pillarmamba: command failed" in capsys.readouterr().err
        assert pkg.handlers == handlers
        assert (root.handlers, root.level) == root_before
    finally:
        pkg.setLevel(pkg_level)


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("pillarmamba ")]
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])  # exits 2 on a flag the CLI no longer has
    assert {argv[1] for argv in lines} == set(SUBCOMMANDS)


def test_readme_layout_names_every_module():
    repo = Path(__file__).resolve().parents[1]
    block = re.search(r"## Layout\n\n```\n(.*?)```", (repo / "README.md").read_text(), re.S).group(1)
    modules = set(re.findall(r"^  (\w+\.py) ", block, re.M))
    assert modules == {p.name for p in (repo / "src" / "pillarmamba").glob("*.py")} - {"__init__.py"}
    for top in re.findall(r"^([\w.-]+)/", block, re.M):
        assert (repo / top).is_dir(), top


def test_readme_config_defaults_match_the_dataclasses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    assert json.loads(block) == config_to_dict(default_config())
