"""Phantom geometry against a brute-force voxel oracle, plus determinism."""

import numpy as np
import pytest

from vesselseg.errors import MissingFile, OutOfRange, SpecInvalid
from vesselseg.phantom import (
    MASK_TO_BIFURCATION,
    BoneDecoy,
    PhantomSpec,
    centerline_at,
    generate,
    load_spec,
    save_spec,
)


def small_spec(**overrides):
    base = dict(
        dims=(12, 24, 24),
        seed=4,
        entry_xy=(11.0, 12.5),
        trunk_radius_px=5.0,
        branch_radius_px=2.0,
        bifurcation_z=6,
        branch_half_angle_deg=20.0,
    )
    base.update(overrides)
    return PhantomSpec(**base)


def brute_force_mask(spec):
    """Independent per-voxel point-in-circle test against centerline_at."""
    nz, ny, nx = spec.dims
    mask = np.zeros((nz, ny, nx), dtype=np.uint8)
    for z in range(nz):
        if spec.mask_extent == MASK_TO_BIFURCATION and z >= spec.bifurcation_z:
            continue
        for y in range(ny):
            for x in range(nx):
                for cx, cy, r in centerline_at(spec, z):
                    if (x - cx) ** 2 + (y - cy) ** 2 < r * r:
                        mask[z, y, x] = 1
                        break
    return mask


def test_centerline_trunk_at_origin():
    spec = small_spec()
    rows = centerline_at(spec, 0)
    assert rows == [(11.0, 12.5, 5.0)]


def test_centerline_two_sections_at_bifurcation():
    spec = small_spec()
    rows = centerline_at(spec, spec.bifurcation_z)
    assert len(rows) == 2
    assert rows[0] == (11.0, 12.5, 2.0)
    assert rows[1] == (11.0, 12.5, 2.0)


def test_centerline_45_degrees():
    spec = small_spec(branch_half_angle_deg=45.0)
    rows = centerline_at(spec, spec.bifurcation_z + 5)
    assert rows[0][0] == pytest.approx(11.0 - 5.0)
    assert rows[1][0] == pytest.approx(11.0 + 5.0)


def test_centerline_out_of_range():
    spec = small_spec()
    with pytest.raises(OutOfRange):
        centerline_at(spec, 12)
    with pytest.raises(OutOfRange):
        centerline_at(spec, -1)


def test_generate_deterministic():
    v1, m1 = generate(small_spec())
    v2, m2 = generate(small_spec())
    assert np.array_equal(v1.voxels, v2.voxels)
    assert np.array_equal(m1.voxels, m2.voxels)


def test_mask_matches_brute_force_oracle():
    for spec in (small_spec(), small_spec(mask_extent=MASK_TO_BIFURCATION), small_spec(entry_xy=(8.0, 9.0), branch_half_angle_deg=33.0)):
        _, mask = generate(spec)
        np.testing.assert_array_equal(mask.voxels, brute_force_mask(spec))


def test_zero_radius_gives_empty_mask():
    _, mask = generate(small_spec(trunk_radius_px=0.0, branch_radius_px=0.0))
    assert mask.voxels.sum() == 0


def test_occluded_segment_intensity_and_mask():
    spec = PhantomSpec(dims=(40, 32, 32), seed=7, bifurcation_z=35, occlusion_z_range=(20, 30))
    vol, mask = generate(spec)
    lumen = mask.voxels[20:30].astype(bool)
    n = int(lumen.sum())
    assert n > 0
    mean_hu = vol.voxels[20:30][lumen].mean()
    # mean of n noisy occluded-lumen voxels: within 3 sigma/sqrt(n) of 45
    assert abs(mean_hu - spec.intensities["occluded_lumen"]) < 3 * spec.noise_sigma / np.sqrt(n) + 0.5
    assert mask.voxels[20:30].sum() == lumen.sum()  # occlusion never unmasks
    # outside the range the lumen is bright
    bright = mask.voxels[:20].astype(bool)
    assert vol.voxels[:20][bright].mean() > 300


def test_mask_extent_modes():
    spec = small_spec(mask_extent=MASK_TO_BIFURCATION)
    _, mask = generate(spec)
    assert mask.voxels[spec.bifurcation_z :].sum() == 0
    assert mask.voxels[: spec.bifurcation_z].sum() > 0

    _, full = generate(small_spec())
    assert full.voxels[-1].sum() > 0  # branches masked to the last slice


def test_bone_decoy_bright_and_never_masked():
    decoy = BoneDecoy(center_xy=(4.0, 4.0), radius_px=3.0, contact_z_range=(2, 10))
    spec = small_spec(bone_decoys=[decoy], noise_sigma=0.0)
    vol, mask = generate(spec)
    yy, xx = np.mgrid[0:24, 0:24]
    inside = (xx - 4.0) ** 2 + (yy - 4.0) ** 2 < 9.0
    for z in range(2, 10):
        assert (vol.voxels[z][inside] == 900).all()
        assert mask.voxels[z][inside].sum() == 0
    assert (vol.voxels[0][inside] < 100).all()  # decoy absent outside its range


def test_bone_overlapping_vessel_keeps_vessel_mask():
    # decoy sitting on the trunk: intensity becomes bone, label stays vessel
    decoy = BoneDecoy(center_xy=(11.0, 12.5), radius_px=2.0, contact_z_range=(0, 3))
    spec = small_spec(bone_decoys=[decoy], noise_sigma=0.0)
    vol, mask = generate(spec)
    assert vol.voxels[0, 12, 11] == 900
    assert mask.voxels[0, 12, 11] == 1


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        small_spec(bifurcation_z=12)
    with pytest.raises(SpecInvalid):
        small_spec(occlusion_z_range=(5, 30))
    with pytest.raises(SpecInvalid):
        small_spec(trunk_radius_px=-1.0)
    with pytest.raises(SpecInvalid):
        small_spec(mask_extent="everywhere")
    with pytest.raises(SpecInvalid):
        small_spec(intensities={"background": 40.0})
    for seed in (-1, 1.5, "x", True, None):
        with pytest.raises(SpecInvalid, match="seed"):
            small_spec(seed=seed)
    nan, inf = float("nan"), float("inf")
    for center, radius in (((10.0, 10.0), nan), ((10.0, nan), 3.0), ((10.0, 10.0), inf), ((-inf, 10.0), 3.0)):
        with pytest.raises(SpecInvalid, match="bone decoy"):
            small_spec(bone_decoys=[BoneDecoy(center_xy=center, radius_px=radius, contact_z_range=(0, 2))])


@pytest.mark.parametrize("text", [
    "{}",
    "[1]",
    "{not json",
    '{"dims": [4, 32, 32], "seed": "x"}',
    '{"dims": [4, 32, 32], "sede": 1}',
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, 2]}]}',
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, NaN], "radius_px": 2, "contact_z_range": [0, 2]}]}',
    '{"dims": [4.5, 32, 32]}',
    '{"dims": [4, 32, 0]}',
    '{"dims": [4, 32]}',
    '{"dims": [4, 32, 32], "noise_sigma": -1}',
    '{"dims": [4, 32, 32], "noise_sigma": NaN}',
    '{"dims": [4, 32, 32], "trunk_radius_px": NaN}',
    '{"dims": [4, 32, 32], "branch_radius_px": Infinity}',
    '{"dims": [4, 32, 32], "branch_radius_px": "3"}',
    '{"dims": [4, 32, 32], "entry_xy": [16, NaN]}',
    '{"dims": [4, 32, 32], "entry_xy": [16, 16, 16]}',
    '{"dims": [4, 32, 32], "branch_half_angle_deg": NaN}',
    '{"dims": [4, 32, 32], "intensities": {"background": 40, "lumen": "350", "occluded_lumen": 45, "bone": 900}}',
    '{"dims": [4, 32, 32], "intensities": {"background": 40, "lumen": 350, "occluded_lumen": NaN, "bone": 900}}',
])
def test_load_spec_raises_spec_invalid_for_a_malformed_file(tmp_path, text):
    (tmp_path / "phantom.json").write_text(text, encoding="utf-8")
    with pytest.raises(SpecInvalid, match="phantom.json"):
        load_spec(tmp_path)


def test_load_spec_errors_for_missing_and_non_utf8_files(tmp_path):
    with pytest.raises(MissingFile, match="phantom.json"):
        load_spec(tmp_path)
    (tmp_path / "phantom.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(SpecInvalid, match="phantom.json"):
        load_spec(tmp_path)


def test_spec_json_roundtrip(tmp_path):
    spec = small_spec(
        occlusion_z_range=(3, 5),
        bone_decoys=[BoneDecoy(center_xy=(2.0, 3.0), radius_px=1.5, contact_z_range=(1, 4))],
    )
    save_spec(spec, tmp_path)
    loaded = load_spec(tmp_path)
    assert loaded == spec
    v1, m1 = generate(spec)
    v2, m2 = generate(loaded)
    assert np.array_equal(v1.voxels, v2.voxels)
