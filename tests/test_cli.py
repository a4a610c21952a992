"""Command-line contract tests: exit codes, pipeline outputs, determinism,
weights round trip, worker-count invariance, bench digests."""

import json
from pathlib import Path

import numpy as np
import pytest

from pillarmamba import cli
from pillarmamba.config import config_from_dict, config_to_dict, default_config
from pillarmamba.data_io import load_cloud, load_labels
from pillarmamba.model import build_model, load_weights, save_weights
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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--out", "/tmp/x", "--frobnicate"])
    assert exc.value.code == 2


def test_gen_writes_declared_outputs(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert len(manifest["scenes"]) == 2
    for entry in manifest["scenes"]:
        assert (dataset / entry["cloud"]).exists()
        assert (dataset / entry["labels"]).exists()
    load_cloud(dataset / manifest["scenes"][0]["cloud"])
    load_labels(dataset / manifest["scenes"][0]["labels"])


def test_forward_then_eval_pipeline(dataset, tiny_cfg_path, tmp_path, capsys):
    dets = tmp_path / "dets"
    rc = cli.main(
        ["forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"), "--out", str(dets), "--seed", "1"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["command"] == "forward"
    assert (dets / "dets_0000.json").exists() and (dets / "dets_0001.json").exists()

    rc = cli.main(
        ["eval", "--config", tiny_cfg_path, "--dets", str(dets), "--manifest", str(dataset / "manifest.json")]
    )
    assert rc == 0
    metrics = json.loads((dets / "metrics.json").read_text())
    assert set(metrics["per_class"]) == {"vehicle", "pedestrian", "cyclist"}
    for entry in metrics["per_class"].values():
        assert entry["ap_r40"] is None or 0.0 <= entry["ap_r40"] <= 1.0


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


def test_forward_workers_match_serial(dataset, tiny_cfg_path, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    for out, workers in ((serial, "1"), (parallel, "2")):
        rc = cli.main(
            [
                "forward", "--config", tiny_cfg_path, "--manifest", str(dataset / "manifest.json"),
                "--out", str(out), "--seed", "5", "--workers", workers,
            ]
        )
        assert rc == 0
    for i in range(2):
        assert (serial / f"dets_{i:04d}.json").read_bytes() == (parallel / f"dets_{i:04d}.json").read_bytes()


def test_train_toy_writes_loadable_weights(dataset, tiny_cfg_path, tmp_path):
    weights = tmp_path / "w.pmw"
    rc = cli.main(
        ["train-toy", "--config", tiny_cfg_path, "--scene", str(dataset / "scene_0000.bin"), "--steps", "2", "--out", str(weights)]
    )
    assert rc == 0
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    model = build_model(cfg, seed=0)
    load_weights(weights, model)


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


def test_weights_roundtrip_exact_for_f32(tiny_cfg_path, tmp_path):
    cfg = config_from_dict(json.loads(Path(tiny_cfg_path).read_text()))
    model = build_model(cfg, seed=7)
    path = tmp_path / "w.pmw"
    save_weights(path, model)
    clone = build_model(cfg, seed=8)
    load_weights(path, clone)
    for (_, a), (_, b) in zip(model.named_params(), clone.named_params()):
        np.testing.assert_array_equal(a.value.data, b.value.data)


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
    sections = {r["section"] for r in rows}
    assert sections == {"scan_form", "backbone"}
    assert (tmp_path / "bench.csv").read_text().count("\n") == len(rows) + 1
    # restricting the form filters the scan section
    rc = cli.main(["bench", "--config", str(cfg_path), "--form", "parallel", "--repeat", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "bench.json").read_text())["rows"]
    assert [r["name"] for r in rows if r["section"] == "scan_form"] == ["parallel"]


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


def test_diagnose_scan_bad_grid(capsys):
    rc = cli.main(["diagnose-scan", "--grid", "16by16"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "16by16" in err["error"]["message"]


def test_run_report_schema(tiny_cfg_path, tmp_path, capsys):
    rc = cli.main(["gen", "--config", tiny_cfg_path, "--out", str(tmp_path / "d"), "--scenes", "1", "--seed", "9"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == {"command", "config_digest", "seed", "wall_time_s", "outputs", "metrics"}
    assert report["seed"] == 9
    assert report["config_digest"]
