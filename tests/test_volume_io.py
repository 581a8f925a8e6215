"""Volume format roundtrips, error paths, and HU normalization."""

import json

import numpy as np
import pytest

from vesselseg.errors import InvalidLabel, MetaParseError, MissingFile, SizeMismatch
from vesselseg.phantom import PhantomSpec, generate
from vesselseg.volume_io import (
    HuWindow,
    MaskVolume,
    Volume,
    VolumeMeta,
    load_mask,
    load_volume,
    normalize_slice,
    save_mask,
    save_volume,
    to_model_input,
)


# A valid meta.json in the key order older writers used (patient_id first).
META = {
    "patient_id": "t",
    "height": 1,
    "width": 1,
    "num_slices": 1,
    "spacing_mm": [1.0, 1.0, 1.0],
    "dtype": "int16-le",
}


def _write_meta(directory, drop=(), **overrides):
    meta = {k: v for k, v in {**META, **overrides}.items() if k not in drop}
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "meta.json").write_text(json.dumps(meta))


def test_load_smallest_volume(tmp_path):
    _write_meta(tmp_path)
    (tmp_path / "volume.raw").write_bytes(np.array([100], dtype="<i2").tobytes())
    vol = load_volume(tmp_path)
    assert vol.voxels.shape == (1, 1, 1)
    assert vol.voxels[0, 0, 0] == 100


def test_phantom_roundtrip_bit_identical(tmp_path):
    vol, mask = generate(PhantomSpec(dims=(4, 16, 16), seed=9))
    save_volume(vol, tmp_path)
    save_mask(mask, tmp_path)
    vol2 = load_volume(tmp_path)
    mask2 = load_mask(tmp_path)
    assert np.array_equal(vol.voxels, vol2.voxels)
    assert np.array_equal(mask.voxels, mask2.voxels)
    assert vol2.meta == vol.meta


def test_size_mismatch(tmp_path):
    _write_meta(tmp_path, height=512, width=512, num_slices=500)
    (tmp_path / "volume.raw").write_bytes(b"\x00" * 10)
    with pytest.raises(SizeMismatch):
        load_volume(tmp_path)
    _write_meta(tmp_path)
    (tmp_path / "volume.raw").write_bytes(b"\x05\x00\x07")  # one voxel and a stray byte
    with pytest.raises(SizeMismatch, match="3 bytes, expected 2"):
        load_volume(tmp_path)


def test_missing_files(tmp_path):
    with pytest.raises(MissingFile):
        load_volume(tmp_path / "nowhere")
    _write_meta(tmp_path)
    with pytest.raises(MissingFile):
        load_volume(tmp_path)
    with pytest.raises(MissingFile):
        load_mask(tmp_path)


def test_meta_parse_errors(tmp_path):
    (tmp_path / "meta.json").write_text("{not json")
    with pytest.raises(MetaParseError):
        load_volume(tmp_path)
    (tmp_path / "meta.json").write_text("[]")
    with pytest.raises(MetaParseError, match="meta.json.*JSON object"):
        load_volume(tmp_path)
    cases = [
        ({"height": 0}, "dimensions"),
        ({"spacing_mm": [1.0, -1.0, 1.0]}, "spacing_mm"),
        ({"dtype": "f32"}, "dtype"),
        ({"drop": ["dtype"]}, "dtype"),
        ({"drop": ["height"]}, "height"),
        ({"height": 32.9}, "height"),
        ({"patient_id": 7}, "patient_id"),
        ({"spacing_mm": [1, 1]}, "spacing_mm"),
        ({"spacing_mm": "1,1,1"}, "spacing_mm"),
        ({"num_slices": True}, "num_slices"),
        ({"voxel_size": [1.0, 1.0, 1.0]}, "voxel_size"),
    ]
    for overrides, field in cases:
        _write_meta(tmp_path, **overrides)
        for load in (load_volume, load_mask):
            with pytest.raises(MetaParseError, match=f"meta.json.*{field}"):
                load(tmp_path)


def test_meta_json_keys_and_types(tmp_path):
    meta = VolumeMeta(height=3, width=2, num_slices=1, spacing_mm=(0.5, 0.5, 2.0), patient_id="p")
    save_mask(MaskVolume(meta=meta, voxels=np.zeros((1, 3, 2), dtype=np.uint8)), tmp_path)
    written = json.loads((tmp_path / "meta.json").read_text())
    assert written == {"patient_id": "p", "height": 3, "width": 2, "num_slices": 1,
                       "spacing_mm": [0.5, 0.5, 2.0], "dtype": "int16-le"}
    _write_meta(tmp_path, **written)  # the same dict in the older key order
    assert load_mask(tmp_path).meta == meta


def test_all_zero_mask_file_bytes(tmp_path):
    meta = VolumeMeta(height=4, width=4, num_slices=2, patient_id="z")
    mask = MaskVolume(meta=meta, voxels=np.zeros((2, 4, 4), dtype=np.uint8))
    save_mask(mask, tmp_path)
    raw = (tmp_path / "mask.raw").read_bytes()
    assert raw == b"\x00" * 32
    assert (tmp_path / "meta.json").is_file()


@pytest.mark.parametrize("byte", [2, 255])
def test_mask_invalid_label(tmp_path, byte):
    _write_meta(tmp_path)
    (tmp_path / "mask.raw").write_bytes(bytes([byte]))
    with pytest.raises(InvalidLabel):
        load_mask(tmp_path)
    with pytest.raises(InvalidLabel):
        MaskVolume(meta=VolumeMeta(1, 1, 1), voxels=np.array([[[byte]]], dtype=np.uint8))


def test_a_bool_mask_is_stored_as_its_uint8_view_without_a_value_scan():
    """A bool array holds only 0 and 1 by type: MaskVolume keeps it as a
    uint8 view of the same memory and reads none of its bytes. The bytes
    below are 2, which a scan would reject, behind a bool view."""
    raw = np.full((2, 3, 4), 2, dtype=np.uint8)
    voxels = raw.view(bool)
    mask = MaskVolume(meta=VolumeMeta(height=3, width=4, num_slices=2), voxels=voxels)
    assert mask.voxels.dtype == np.uint8 and mask.voxels.shape == (2, 3, 4)
    assert np.shares_memory(mask.voxels, raw) and mask.voxels.max() == 2  # not copied, not scanned
    sliced = np.zeros((2, 6, 4), dtype=bool)[:, ::2]  # a strided bool view is kept as a view too
    assert np.shares_memory(MaskVolume(meta=VolumeMeta(3, 4, 2), voxels=sliced).voxels, sliced)


def test_volume_shape_guard():
    meta = VolumeMeta(height=2, width=2, num_slices=1)
    with pytest.raises(SizeMismatch):
        Volume(meta=meta, voxels=np.zeros((1, 2, 3), dtype=np.int16))


def test_hu_window_validation():
    with pytest.raises(MetaParseError):
        HuWindow(10.0, 10.0)


def test_normalize_endpoints_and_midpoint():
    w = HuWindow(-100.0, 900.0)
    s = np.array([[-100.0, 900.0, 400.0, 1400.0, -500.0]])
    out = normalize_slice(s, w)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.5, 1.0, 0.0]])


def test_normalize_monotone_and_idempotent():
    rng = np.random.default_rng(0)
    w = HuWindow(-100.0, 900.0)
    v = np.sort(rng.uniform(-2000, 3000, size=256))
    out = normalize_slice(v[None, :], w)[0]
    assert (np.diff(out) >= 0).all()
    # already-normalized values pass unchanged through the identity window
    again = normalize_slice(out[None, :], HuWindow(0.0, 1.0))[0]
    np.testing.assert_array_equal(again, out)


def test_to_model_input_replication():
    rng = np.random.default_rng(1)
    s = rng.uniform(0, 1, size=(7, 5)).astype(np.float32)
    x = to_model_input(s)
    assert x.shape == (7, 5, 3)
    np.testing.assert_array_equal(x[:, :, 0], s)
    np.testing.assert_array_equal(x[:, :, 1], s)
    np.testing.assert_array_equal(x[:, :, 2], s)

    const = to_model_input(np.full((3, 3), 0.5, dtype=np.float32))
    assert (const == 0.5).all()


def test_to_model_input_full_size():
    x = to_model_input(np.zeros((512, 512), dtype=np.float32))
    assert x.shape == (512, 512, 3)


def test_to_model_input_rejects_3d():
    with pytest.raises(SizeMismatch):
        to_model_input(np.zeros((2, 2, 2)))
