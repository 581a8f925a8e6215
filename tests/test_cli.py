"""End-to-end CLI flows on micro-sized inputs."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesselseg
from vesselseg.checkpoint import load_checkpoint
from vesselseg.cli import dispatch, write_overlay
from vesselseg.errors import VesselSegError
from vesselseg.training import checkpoint_seed
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
def track_phantom(tmp_path_factory):
    vol_dir = tmp_path_factory.mktemp("track") / "vol"
    assert run("phantom", "--out", str(vol_dir), "--seed", "3", "--slices", "6", "--size", "32").exit_code == 0
    return vol_dir


def _track(vol_dir, out, *window):
    return run("track", "--volume", str(vol_dir), "--seed-point", "16,16", *window,
               "--out", str(out), "--events", str(out.parent / f"{out.name}.json"))


@pytest.mark.parametrize("t_lo, t_hi", [
    ("-inf", "500"), ("-1e3", "500"), ("-1E3", "inf"), ("-Infinity", "5e2"), ("-.5e2", "500"),
])
def test_track_takes_a_negative_float_threshold_as_its_own_token(track_phantom, tmp_path, capsys, t_lo, t_hi):
    """argparse reads "-inf" or "-1e3" after a flag as another flag; the track
    command takes it as the threshold, as it takes "--t-lo=-inf"."""
    result = _track(track_phantom, tmp_path / "spaced", "--t-lo", t_lo, "--t-hi", t_hi)
    assert result.exit_code == 0, capsys.readouterr().err
    config = json.loads((tmp_path / "spaced" / "effective_config.json").read_text())
    assert (config["t_lo"], config["t_hi"]) == (float(t_lo), float(t_hi))
    assert _track(track_phantom, tmp_path / "joined", f"--t-lo={t_lo}", f"--t-hi={t_hi}").exit_code == 0
    assert load_mask(tmp_path / "spaced").voxels.tobytes() == load_mask(tmp_path / "joined").voxels.tobytes()


@pytest.mark.parametrize("t_lo, t_hi, needle", [
    ("-nan", "500", "threshold window needs numbers"),
    ("200", "-1e3", "threshold window needs numbers"),
    ("-inf", "-1e3", "outside window"),  # a valid window, but the seed pixel lies above it
])
def test_track_rejects_a_bad_negative_threshold_by_its_value(track_phantom, tmp_path, capsys, t_lo, t_hi, needle):
    result = _track(track_phantom, tmp_path / "o", "--t-lo", t_lo, "--t-hi", t_hi)
    err = capsys.readouterr().err
    assert result.exit_code == 1 and err.startswith("vesselseg: ") and needle in err, err
    assert not (tmp_path / "o").exists()


def test_track_rejects_nan_thresholds(track_phantom, tmp_path, capsys):
    for window in (["--t-lo", "nan", "--t-hi", "500"], ["--t-lo", "200", "--t-hi", "nan"]):
        assert _track(track_phantom, tmp_path / "o", *window).exit_code == 1
        assert "threshold window needs numbers" in capsys.readouterr().err


MICRO_CONFIG = {
    "model": {"input_hw": 32, "encoder_widths": [8, 8, 16, 32, 64],
              "decoder_widths": [32, 16, 8, 4], "bridge_layers": 1,
              "d_model": 32, "num_heads": 2},
    "train": {"epochs": 1, "batch_size": 4, "learning_rate": 1e-3},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A micro training run shared by eval/predict tests."""
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "p00"
    assert run("phantom", "--out", str(data), "--seed", "5", "--slices", "4", "--size", "32").exit_code == 0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(MICRO_CONFIG))
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


@pytest.fixture(scope="module")
def xval_run(tmp_path_factory):
    """A micro cross-validation run over six phantoms: (data root, report path)."""
    tmp_path = tmp_path_factory.mktemp("cli_xval")
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
    return root, report


def test_xval_flow(xval_run):
    _, report = xval_run
    payload = json.loads(report.read_text())
    assert len(payload["folds"]) == 3
    assert len(payload["plan"]["folds"]) == 3
    tested = [p["patient_id"] for f in payload["folds"] for p in f["per_patient"]]
    assert len(tested) == 3 and len(set(tested)) == 3
    folds = json.loads((report.parent / "folds.json").read_text())
    assert folds == payload["plan"]


def test_train_accepts_an_xval_config(xval_run, tmp_path):
    root, report = xval_run
    cfg = report.with_suffix(".config.json")
    assert set(json.loads(cfg.read_text())) == {"command", "model", "train", "data_root", "folds"}
    out = tmp_path / "run"
    result = run("train", "--data", str(root / "p00"), "--config", str(cfg), "--out", str(out), "--epochs", "0")
    assert result.exit_code == 0
    assert json.loads((out / "effective_config.json").read_text())["model"]["bridge_layers"] == 0


@pytest.mark.parametrize("samples", [1, 5, 11, 12])
def test_gradcheck_command(capsys, samples):
    result = run("gradcheck", "--tol", "1e-4", "--seed", "0", "--samples", str(samples))
    assert result.exit_code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["max_rel_err"] <= 1e-4
    assert out["n_samples"] == sum(out["group_counts"].values()) == samples


@pytest.mark.parametrize("flags, name", [
    (["--samples", "0"], "n_samples"),
    (["--samples", "-3"], "n_samples"),
    (["--samples", "12", "--tol", "-1"], "tol"),
    (["--samples", "12", "--tol", "0"], "tol"),
    (["--samples", "12", "--tol", "nan"], "tol"),
    (["--samples", "12", "--tol", "inf"], "tol"),
])
def test_gradcheck_rejects_a_bad_sample_count_or_tolerance(capsys, flags, name):
    result = run("gradcheck", *flags)
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and name in err, err
    assert "Traceback" not in err and "gradient check failed" not in err


def test_train_negative_epochs_exits_1(trained, tmp_path, capsys):
    root, data, _ = trained
    result = run("train", "--data", str(data), "--config", str(root / "cfg.json"),
                 "--out", str(tmp_path / "run"), "--epochs", "-1")
    err = capsys.readouterr().err
    assert result.exit_code == 1
    assert "epochs" in err and "Traceback" not in err


def test_effective_config_reproduces_the_checkpoint(trained, tmp_path):
    _, data, out = trained
    again = tmp_path / "again"
    result = run("train", "--data", str(data), "--config", str(out / "effective_config.json"), "--out", str(again))
    assert result.exit_code == 0
    assert (again / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()
    assert (again / "effective_config.json").read_bytes() == (out / "effective_config.json").read_bytes()


def _section(name, **edits):
    return {**MICRO_CONFIG, name: {**MICRO_CONFIG[name], **edits}}


@pytest.mark.parametrize("config, field", [
    (_section("train", shuflle=False), "shuflle"),
    (_section("model", depth=3), "depth"),
    (_section("train", hu_window=5), "hu_window"),
    (_section("train", hu_window=[900, -100]), "hu_window"),
    (_section("model", encoder_widths=5), "encoder_widths"),
    (_section("model", encoder_widths=["a", 1, 1, 1, 1]), "encoder_widths"),
    (_section("model", num_heads=0), "num_heads"),
    (_section("model", bridge_layers=-1), "bridge_layers"),
    (_section("model", input_hw=32.9), "input_hw"),
    ([MICRO_CONFIG], "model/train"),
    (_section("train", epochs="2"), "epochs"),
    (_section("train", learning_rate="x"), "learning_rate"),
    (None, "no_such_config.json"),
    ({**MICRO_CONFIG, "modle": {"input_hw": 64}}, "modle"),
])
def test_malformed_train_config_exits_1(trained, tmp_path, capsys, config, field):
    _, data, _ = trained
    path = tmp_path / "no_such_config.json"
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
    result = run("train", "--data", str(data), "--config", str(path), "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and field in err and "Traceback" not in err


def _edit_header(src, dst, section, key, value):
    """Copy a checkpoint, setting header[section][key] = value."""
    raw = src.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + n])
    header[section][key] = value
    new = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + n :])


@pytest.mark.parametrize("key, value", [("num_heads", 0), ("input_hw", 32.5), ("d_model", "32"), ("depth", 3)])
def test_malformed_checkpoint_config_exits_1(trained, tmp_path, capsys, key, value):
    _, data, out = trained
    bad = tmp_path / "bad.ckpt"
    _edit_header(out / "model.ckpt", bad, "config", key, value)
    with pytest.raises(VesselSegError, match=key):
        load_checkpoint(bad)
    result = run("eval", "--ckpt", str(bad), "--data", str(data), "--report", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert result.exit_code == 1
    assert err.startswith("vesselseg: ") and key in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_window_must_be_a_pair(trained, tmp_path, capsys, command):
    _, data, out = trained
    bad = tmp_path / "bad.ckpt"
    _edit_header(out / "model.ckpt", bad, "meta", "hu_window", 5)
    flags = {"eval": ["--data", str(data), "--report", str(tmp_path / "r.json")],
             "predict": ["--volume", str(data), "--out", str(tmp_path / "pred")]}[command]
    result = run(command, "--ckpt", str(bad), *flags)
    err = capsys.readouterr().err
    assert result.exit_code == 1
    assert err.startswith("vesselseg: ") and "hu_window" in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [None, "abc", float("nan"), [1], 1.5, True, -4])
def test_eval_rejects_a_checkpoint_seed_that_is_not_an_int_at_least_0(trained, tmp_path, capsys, seed):
    _, data, out = trained
    bad = tmp_path / "bad.ckpt"
    _edit_header(out / "model.ckpt", bad, "meta", "seed", seed)
    report = tmp_path / "r.json"
    result = run("eval", "--ckpt", str(bad), "--data", str(data), "--report", str(report))
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and "seed" in err and "Traceback" not in err
    assert not report.exists()


def test_eval_reports_the_checkpoint_seed_or_0_when_absent(trained, tmp_path):
    _, data, out = trained
    seven = tmp_path / "seed7.ckpt"
    _edit_header(out / "model.ckpt", seven, "meta", "seed", 7)
    report = tmp_path / "r.json"
    assert run("eval", "--ckpt", str(seven), "--data", str(data), "--report", str(report)).exit_code == 0
    assert json.loads(report.read_text())["seed"] == 7
    ckpt = load_checkpoint(out / "model.ckpt")
    del ckpt.meta["seed"]
    assert checkpoint_seed(ckpt) == 0


def test_console_script_exits_1_on_a_malformed_config(trained, tmp_path):
    _, data, _ = trained
    pyproject = Path(vesselseg.__file__).parents[2] / "pyproject.toml"
    assert 'vesselseg = "vesselseg.cli:main"' in pyproject.read_text(encoding="utf-8")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_section("train", epochs="2")))
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "from vesselseg.cli import main; main()",
         "train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "epochs" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("meta, field", [([], "JSON object"), ({"height": 32.9}, "height")])
def test_malformed_meta_exits_1(trained, tmp_path, capsys, meta, field):
    _, data, out = trained
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("volume.raw", "mask.raw"):
        (bad / name).write_bytes((data / name).read_bytes())
    if isinstance(meta, dict):
        meta = {**json.loads((data / "meta.json").read_text()), **meta}
    (bad / "meta.json").write_text(json.dumps(meta))
    ckpt = str(out / "model.ckpt")
    for argv in (
        ["track", "--volume", str(bad), "--seed-point", "16,16", "--t-lo", "200", "--t-hi", "500",
         "--out", str(tmp_path / "trk"), "--events", str(tmp_path / "e.json")],
        ["predict", "--ckpt", ckpt, "--volume", str(bad), "--out", str(tmp_path / "pred")],
        ["eval", "--ckpt", ckpt, "--data", str(bad), "--report", str(tmp_path / "r.json")],
    ):
        result = run(*argv)
        err = capsys.readouterr().err
        assert result.exit_code == 1, err
        assert err.startswith("vesselseg: ") and "meta.json" in err and field in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["phantom", "track", "predict"])
def test_out_naming_an_existing_file_exits_1(trained, tmp_path, capsys, command):
    _, data, out = trained
    afile = tmp_path / "afile"
    afile.touch()
    argv = {
        "phantom": ["phantom", "--slices", "4", "--size", "32"],
        "track": ["track", "--volume", str(data), "--seed-point", "16,16", "--t-lo", "200", "--t-hi", "500",
                  "--events", str(tmp_path / "e.json")],
        "predict": ["predict", "--ckpt", str(out / "model.ckpt"), "--volume", str(data)],
    }[command]
    result = run(*argv, "--out", str(afile))
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and str(afile) in err and "Traceback" not in err
    assert afile.is_file() and afile.stat().st_size == 0


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_predict_threshold_outside_0_1_exits_1(trained, tmp_path, capsys, threshold):
    _, data, out = trained
    pred = tmp_path / "pred"
    result = run("predict", "--ckpt", str(out / "model.ckpt"), "--volume", str(data),
                 "--out", str(pred), "--threshold", threshold)
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and "threshold" in err and "Traceback" not in err
    assert not pred.exists()


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


@pytest.mark.parametrize("command, flag, value", [
    ("track", "--seed-point", "16"),
    ("track", "--seed-point", "1.5,2"),
    ("xval", "--folds", "a,b"),
    ("phantom", "--occlusion", "5"),
    ("phantom", "--bone", "1,2"),
    ("phantom", "--bone", "1,2,3,4"),
])
def test_malformed_flag_values_name_the_flag(tmp_path, capsys, command, flag, value):
    argv = {
        "track": ["track", "--volume", str(tmp_path / "v"), "--t-lo", "200", "--t-hi", "500",
                  "--out", str(tmp_path / "o"), "--events", str(tmp_path / "e.json")],
        "xval": ["xval", "--data-root", str(tmp_path), "--report", str(tmp_path / "r.json")],
        "phantom": ["phantom", "--out", str(tmp_path / "o")],
    }[command]
    result = run(*argv, flag, value)
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert f"argument {flag}: expected " in err and repr(value) in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"),
    ("--bone", "10,10,nan,0:2"),
    ("--bone", "10,nan,3,0:2"),
    ("--bone", "10,10,inf,0:2"),
])
def test_phantom_spec_values_out_of_range_exit_1(tmp_path, capsys, flag, value):
    out = tmp_path / "p"
    result = run("phantom", "--out", str(out), "--slices", "4", "--size", "32", flag, value)
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and "Traceback" not in err
    assert not out.exists()


def test_missing_or_unwritable_paths_exit_1(trained, tmp_path, capsys):
    _, data, out = trained
    afile = tmp_path / "afile"
    afile.touch()
    bad_json, bad_utf8 = tmp_path / "bad.json", tmp_path / "bad_utf8.json"
    bad_json.write_text("{not json")
    bad_utf8.write_bytes(b"\xff\xfe{}")
    missing = str(tmp_path / "missing.ckpt")
    for argv, needle in (
        (["eval", "--ckpt", missing, "--data", str(data), "--report", str(tmp_path / "r.json")], missing),
        (["predict", "--ckpt", missing, "--volume", str(data), "--out", str(tmp_path / "pred")], missing),
        (["xval", "--data-root", str(tmp_path / "none"), "--report", str(tmp_path / "x.json")], "--data-root"),
        (["xval", "--data-root", str(afile), "--report", str(tmp_path / "x.json")], "--data-root"),
        (["track", "--volume", str(data), "--seed-point", "16,16", "--t-lo", "200", "--t-hi", "500",
          "--out", str(tmp_path / "trk"), "--events", str(afile / "e.json")], str(afile)),
        (["eval", "--ckpt", str(out / "model.ckpt"), "--data", str(data), "--report", str(afile / "r.json")],
         str(afile)),
        (["predict", "--ckpt", str(out / "model.ckpt"), "--volume", str(data), "--out", str(tmp_path / "pred"),
          "--overlay-dir", str(afile)], str(afile)),
        (["train", "--data", str(data), "--out", str(afile)], str(afile)),
        (["train", "--data", str(data), "--config", str(bad_json), "--out", str(tmp_path / "run")], "bad.json"),
        (["train", "--data", str(data), "--config", str(bad_utf8), "--out", str(tmp_path / "run")], "bad_utf8.json"),
    ):
        result = run(*argv)
        err = capsys.readouterr().err
        assert result.exit_code == 1, (argv, err)
        assert err.startswith("vesselseg: ") and needle in err and "Traceback" not in err, err


@pytest.mark.parametrize("command, flag, expensive", [
    ("predict", "--out", "segment_volume"),
    ("predict", "--overlay-dir", "segment_volume"),
    ("track", "--out", "track_volume"),
    ("track", "--events", "track_volume"),
    ("eval", "--report", "evaluate"),
    ("xval", "--report", "cross_validate"),
])
def test_an_output_under_a_regular_file_fails_before_the_work(trained, tmp_path, capsys, monkeypatch,
                                                              command, flag, expensive):
    """The output's parent is a file: the command exits 1 before its
    expensive call and writes nothing."""
    import vesselseg.cli as cli

    _, data, out = trained
    root = tmp_path / "root"
    assert run("phantom", "--out", str(root / "p00"), "--slices", "4", "--size", "32").exit_code == 0
    afile = tmp_path / "afile"
    afile.touch()
    outputs = {
        "predict": {"--out": tmp_path / "pred", "--overlay-dir": tmp_path / "ppm"},
        "track": {"--out": tmp_path / "trk", "--events": tmp_path / "e.json"},
        "eval": {"--report": tmp_path / "r.json"},
        "xval": {"--report": tmp_path / "x.json"},
    }[command]
    outputs[flag] = afile / outputs[flag].name
    inputs = {
        "predict": ["--ckpt", str(out / "model.ckpt"), "--volume", str(data)],
        "track": ["--volume", str(data), "--seed-point", "16,16", "--t-lo", "200", "--t-hi", "500"],
        "eval": ["--ckpt", str(out / "model.ckpt"), "--data", str(data)],
        "xval": ["--data-root", str(root), "--folds", "1"],
    }[command]
    calls = []

    def spy(*args, **kwargs):
        calls.append(expensive)
        raise AssertionError(f"{expensive} ran")

    monkeypatch.setattr(cli, expensive, spy)
    before = sorted(tmp_path.rglob("*"))
    result = run(command, *inputs, *[v for f, path in outputs.items() for v in (f, str(path))])
    err = capsys.readouterr().err
    assert result.exit_code == 1, err
    assert err.startswith("vesselseg: ") and f"{afile} is not a writable directory" in err, err
    assert "Traceback" not in err and calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_a_plain_value_error_is_a_bug_and_exits_2(tmp_path, capsys, monkeypatch):
    import vesselseg.cli as cli

    def broken(args):
        raise ValueError("a bug, not a malformed input")

    monkeypatch.setattr(cli, "_cmd_phantom", broken)
    result = run("phantom", "--out", str(tmp_path / "p"))
    err = capsys.readouterr().err
    assert result.exit_code == 2
    assert "Traceback" in err and "a bug, not a malformed input" in err


def _module_cli(cwd, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("module", ["vesselseg", "vesselseg.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    """python -m vesselseg (and -m vesselseg.cli) write what dispatch writes,
    and a bad flag exits 1."""
    flags = ["--slices", "4", "--size", "32", "--seed", "3", "--occlusion", "1:2"]
    assert run("phantom", "--out", str(tmp_path / "direct" / "p"), *flags).exit_code == 0
    (tmp_path / "module").mkdir()
    proc = _module_cli(tmp_path / "module", module, "phantom", "--out", "p", *flags)
    assert proc.returncode == 0, proc.stderr
    direct = sorted(p.relative_to(tmp_path / "direct") for p in (tmp_path / "direct").rglob("*"))
    assert sorted(p.relative_to(tmp_path / "module") for p in (tmp_path / "module").rglob("*")) == direct
    for name in direct:
        if name.suffix in (".raw", ".json") and name.name != "effective_config.json":  # that records --out
            assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes(), name
    proc = _module_cli(tmp_path, module, "phantom", "--out", "q", "--nope")
    assert proc.returncode == 1 and "--nope" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "q").exists()
