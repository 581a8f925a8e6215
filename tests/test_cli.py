"""End-to-end CLI flows on micro-sized inputs."""

import json

import numpy as np
import pytest

from vesselseg.cli import dispatch, write_overlay
from vesselseg.volume_io import HuWindow, load_mask


def run(*argv):
    return dispatch(list(argv))


def read_ppm(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    header, _, rest = data.partition(b"255\n")
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    assert len(rest) == w * h * 3
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def test_phantom_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("phantom", "--out", str(a), "--seed", "7", "--slices", "6", "--size", "32").exit_code == 0
    assert run("phantom", "--out", str(b), "--seed", "7", "--slices", "6", "--size", "32").exit_code == 0
    assert (a / "volume.raw").read_bytes() == (b / "volume.raw").read_bytes()
    assert (a / "effective_config.json").is_file()
    assert (a / "phantom.json").is_file()


def test_track_flow(tmp_path):
    vol_dir = tmp_path / "occ"
    assert run(
        "phantom", "--out", str(vol_dir), "--seed", "3", "--slices", "12", "--size", "32",
        "--occlusion", "4:8",
    ).exit_code == 0
    out_dir = tmp_path / "trk"
    events = tmp_path / "events.json"
    result = run(
        "track", "--volume", str(vol_dir), "--seed-point", "16,16",
        "--t-lo", "200", "--t-hi", "500", "--out", str(out_dir), "--events", str(events),
    )
    assert result.exit_code == 0
    mask = load_mask(out_dir)
    assert mask.voxels[4:].sum() == 0
    payload = json.loads(events.read_text())
    assert any(e["kind"] == "lost" and e["z"] == 4 for e in payload)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A micro training run shared by eval/predict tests."""
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "p00"
    assert run("phantom", "--out", str(data), "--seed", "5", "--slices", "4", "--size", "32").exit_code == 0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"input_hw": 32, "encoder_widths": [8, 8, 16, 32, 64],
                   "decoder_widths": [32, 16, 8, 4], "bridge_layers": 1,
                   "d_model": 32, "num_heads": 2},
        "train": {"epochs": 1, "batch_size": 4, "learning_rate": 1e-3},
    }))
    out = root / "run"
    result = run("train", "--data", str(data), "--config", str(cfg), "--out", str(out), "--seed", "1")
    assert result.exit_code == 0
    return root, data, out


def test_train_outputs(trained):
    _, _, out = trained
    assert (out / "model.ckpt").is_file()
    assert (out / "train_log.jsonl").read_text().strip()
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["command"] == "train"
    assert eff["train"]["epochs"] == 1


def test_eval_flow(trained, tmp_path):
    root, data, out = trained
    report = tmp_path / "report.json"
    result = run("eval", "--ckpt", str(out / "model.ckpt"), "--data", str(data), "--report", str(report))
    assert result.exit_code == 0
    payload = json.loads(report.read_text())
    assert len(payload["per_patient"]) == 1
    assert 0.0 <= payload["mean_dice"] <= 1.0
    assert report.with_suffix(".config.json").is_file()


def test_predict_flow_and_overlays(trained, tmp_path):
    root, data, out = trained
    pred = tmp_path / "pred"
    overlays = tmp_path / "ppm"
    result = run(
        "predict", "--ckpt", str(out / "model.ckpt"), "--volume", str(data),
        "--out", str(pred), "--overlay-dir", str(overlays), "--threshold", "1.0",
    )
    assert result.exit_code == 0
    mask = load_mask(pred)
    assert mask.voxels.sum() == 0  # sigmoid stays below 1.0
    img = read_ppm(overlays / "slice_0000.ppm")
    assert np.array_equal(img[:, :, 0], img[:, :, 1])  # empty mask: pure grayscale
    assert np.array_equal(img[:, :, 1], img[:, :, 2])


def test_predict_full_mask_overlay(trained, tmp_path):
    root, data, out = trained
    pred = tmp_path / "pred0"
    overlays = tmp_path / "ppm0"
    result = run(
        "predict", "--ckpt", str(out / "model.ckpt"), "--volume", str(data),
        "--out", str(pred), "--overlay-dir", str(overlays), "--threshold", "0.0",
    )
    assert result.exit_code == 0
    assert load_mask(pred).voxels.all()  # threshold 0: everything predicted
    img = read_ppm(overlays / "slice_0001.ppm")
    assert (img[:, :, 0] == 255).all()  # full mask: red channel saturated


def test_xval_flow(tmp_path):
    root = tmp_path / "zoo"
    for i in range(6):
        assert run(
            "phantom", "--out", str(root / f"p{i:02d}"), "--seed", str(40 + i),
            "--slices", "4", "--size", "32",
        ).exit_code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"input_hw": 32, "encoder_widths": [8, 8, 16, 32, 64],
                   "decoder_widths": [32, 16, 8, 4], "bridge_layers": 0,
                   "d_model": 32, "num_heads": 2},
        "train": {"epochs": 1, "batch_size": 8, "learning_rate": 1e-3},
    }))
    report = tmp_path / "xval.json"
    result = run("xval", "--data-root", str(root), "--folds", "2,2,2",
                 "--config", str(cfg), "--report", str(report))
    assert result.exit_code == 0
    payload = json.loads(report.read_text())
    assert len(payload["folds"]) == 3
    assert len(payload["plan"]["folds"]) == 3
    tested = [p["patient_id"] for f in payload["folds"] for p in f["per_patient"]]
    assert len(tested) == 3 and len(set(tested)) == 3
    folds = json.loads((report.parent / "folds.json").read_text())
    assert folds == payload["plan"]


def test_gradcheck_command(capsys):
    result = run("gradcheck", "--tol", "1e-4", "--seed", "0", "--samples", "12")
    assert result.exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["max_rel_err"] <= 1e-4


def test_train_negative_epochs_exits_1(trained, tmp_path, capsys):
    root, data, _ = trained
    result = run("train", "--data", str(data), "--config", str(root / "cfg.json"),
                 "--out", str(tmp_path / "run"), "--epochs", "-1")
    err = capsys.readouterr().err
    assert result.exit_code == 1
    assert "epochs" in err and "Traceback" not in err


def test_bad_usage_exit_codes(tmp_path, capsys):
    assert run("phantom", "--nope").exit_code == 1
    assert run("phantom").exit_code == 1  # missing --out
    assert run("frobnicate").exit_code == 1
    assert run("track", "--volume", str(tmp_path / "missing"), "--seed-point", "1,1",
               "--t-lo", "0", "--t-hi", "1", "--out", str(tmp_path / "o"),
               "--events", str(tmp_path / "e.json")).exit_code == 1
    capsys.readouterr()


def test_write_overlay_format(tmp_path):
    hu = np.full((4, 6), 400, dtype=np.int16)
    mask = np.zeros((4, 6), dtype=np.uint8)
    mask[1, 2] = 1
    path = tmp_path / "o.ppm"
    write_overlay(hu, mask, path, HuWindow(-100, 900))
    img = read_ppm(path)
    assert img.shape == (4, 6, 3)
    assert img[1, 2, 0] == 255
    gray = int(0.5 * 255)
    assert img[0, 0, 0] == gray and img[0, 0, 1] == gray and img[0, 0, 2] == gray
    assert img[1, 2, 1] == gray  # green/blue keep the grayscale under the tint
