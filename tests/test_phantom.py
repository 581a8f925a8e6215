"""Phantom geometry against a brute-force voxel oracle, plus determinism."""

import hashlib

import numpy as np
import pytest

from vesselseg.errors import MissingFile, OutOfRange, SpecInvalid
from vesselseg.phantom import (
    DEFAULT_INTENSITIES,
    MASK_TO_BIFURCATION,
    MASK_TO_END,
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


def _whole_volume_generate(spec):
    """Oracle: the renderer that tests every disk on a whole-slice grid and
    draws the noise for the whole volume in one call."""
    nz, ny, nx = spec.dims
    xx, yy = np.meshgrid(np.arange(nx, dtype=np.float64), np.arange(ny, dtype=np.float64))
    base = np.full((nz, ny, nx), spec.intensities["background"], dtype=np.float64)
    mask = np.zeros((nz, ny, nx), dtype=np.uint8)
    occ = spec.occlusion_z_range
    for z in range(nz):
        vessel = np.zeros((ny, nx), dtype=bool)
        for cx, cy, r in centerline_at(spec, z):
            vessel |= (xx - cx) ** 2 + (yy - cy) ** 2 < r * r
        occluded = occ is not None and occ[0] <= z < occ[1]
        base[z][vessel] = spec.intensities["occluded_lumen"] if occluded else spec.intensities["lumen"]
        for decoy in spec.bone_decoys:
            z0, z1 = decoy.contact_z_range
            if z0 <= z < z1:
                bx, by = decoy.center_xy
                base[z][(xx - bx) ** 2 + (yy - by) ** 2 < decoy.radius_px**2] = spec.intensities["bone"]
        if spec.mask_extent == MASK_TO_END or z < spec.bifurcation_z:
            mask[z] = vessel
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    noisy = base + rng.normal(0.0, spec.noise_sigma, size=base.shape)
    info = np.iinfo(np.int16)
    return np.clip(np.rint(noisy), info.min, info.max).astype(np.int16), mask


def bench_style_spec(hw, nz, i, seed, late=False):
    """A study-recipe phantom (occlusion plus two bone decoys) scaled to nz
    slices of hw x hw, as the benchmark builds them."""
    s, zs = hw / 64.0, nz / 64.0
    corners = [(12.0, 12.0), (52.0, 12.0), (12.0, 52.0), (52.0, 52.0)]
    a, b = corners[i % 4], corners[(i + 2) % 4]
    ja, jb = (i * 5) % 7 - 3, (i * 3) % 7 - 3
    occ0 = (44 if late else 14) + (i % 4) * 2

    def z(v):
        return min(nz, int(round(v * zs)))

    return PhantomSpec(
        dims=(nz, hw, hw),
        seed=seed,
        entry_xy=(s * (32.0 + (i * 7) % 5 - 2), s * (32.0 + (i * 3) % 5 - 2)),
        trunk_radius_px=s * (9.0 + i % 3),
        branch_radius_px=s * 3.0,
        bifurcation_z=z(28 + (i % 5) * 2),
        branch_half_angle_deg=12.0 + (i % 4) * 2.0,
        occlusion_z_range=(z(occ0), z(occ0 + (6 if late else 8))),
        bone_decoys=[
            BoneDecoy((s * (a[0] + ja), s * (a[1] + jb)), s * (4.0 + i % 5), (z(4 + (i * 3) % 12), z(44 + (i * 5) % 20))),
            BoneDecoy((s * (b[0] + jb), s * (b[1] + ja)), s * (3.0 + (i + 2) % 4), (z(10 + (i * 2) % 10), z(60 - (i * 2) % 8))),
        ],
    )


ORACLE_SPECS = [
    *(bench_style_spec(64, 64, i, seed=i + 1, late=i % 2 == 1) for i in range(4)),
    bench_style_spec(128, 32, 5, seed=2),
    bench_style_spec(512, 6, 1, seed=3, late=True),
    small_spec(),
    small_spec(mask_extent=MASK_TO_BIFURCATION, noise_sigma=0.0),
    small_spec(dims=(3, 7, 40), entry_xy=(-30.0, 3.0), trunk_radius_px=2.0, bifurcation_z=1),  # off the slice
    small_spec(entry_xy=(0.0, 23.0), trunk_radius_px=6.5, branch_radius_px=0.0),  # on a corner, empty branches
    small_spec(trunk_radius_px=1e6, branch_radius_px=1e200, branch_half_angle_deg=89.0),  # huge disks
    small_spec(entry_xy=(np.float64(11.25), 12), bone_decoys=[
        BoneDecoy((5, 5.5), 4, (0, 12)),
        BoneDecoy((30.0, -4.0), 7.5, (2, 9)),  # mostly off the slice
        BoneDecoy((12.0, 12.0), 1e5, (11, 12)),  # covers the slice
        BoneDecoy((-1e9, 12.0), 1e9 + 5.0, (3, 4)),  # its edge on the slice
        BoneDecoy((400.0, 400.0), 2.0, (0, 12)),  # far off the slice
    ]),
    small_spec(dims=(1, 1, 1), entry_xy=(0.0, 0.0), bifurcation_z=0, noise_sigma=1e6),  # clipped to int16
    small_spec(intensities={"background": -2000.0, "lumen": 35000.0, "occluded_lumen": 0.5, "bone": 1.5},
               occlusion_z_range=(2, 5)),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=range(len(ORACLE_SPECS)))
def test_generate_is_byte_identical_to_the_whole_volume_renderer(spec):
    vol, mask = generate(spec)
    want_vol, want_mask = _whole_volume_generate(spec)
    assert vol.voxels.dtype == want_vol.dtype and mask.voxels.dtype == want_mask.dtype
    assert hashlib.sha256(vol.voxels.tobytes()).digest() == hashlib.sha256(want_vol.tobytes()).digest()
    assert hashlib.sha256(mask.voxels.tobytes()).digest() == hashlib.sha256(want_mask.tobytes()).digest()


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
    for bad in (1.5, np.float64(2.0), True, "3"):  # None means the default, nz // 2
        with pytest.raises(SpecInvalid, match="bifurcation_z"):
            small_spec(bifurcation_z=bad)
    for bad in ((0.5, 2.5), (1, 2.0), (np.float64(1), 3), (False, 2), (1,), (1, 2, 3), "1:2", 4):
        with pytest.raises(SpecInvalid, match="occlusion range"):
            small_spec(occlusion_z_range=bad)
        with pytest.raises(SpecInvalid, match="bone decoy z range"):
            small_spec(bone_decoys=[BoneDecoy(center_xy=(4.0, 4.0), radius_px=2.0, contact_z_range=bad)])
    spec = small_spec(bifurcation_z=np.int64(6), occlusion_z_range=(np.int32(2), 4),
                      bone_decoys=[BoneDecoy(center_xy=(4.0, 4.0), radius_px=2.0, contact_z_range=(np.int16(0), 3))])
    np.testing.assert_array_equal(generate(spec)[0].voxels, generate(small_spec(
        occlusion_z_range=(2, 4), bone_decoys=[BoneDecoy(center_xy=(4.0, 4.0), radius_px=2.0, contact_z_range=(0, 3))]
    ))[0].voxels)
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
    '{"dims": [4, 32, 32], "bifurcation_z": 1.5}',
    '{"dims": [4, 32, 32], "occlusion_z_range": [0.5, 2.5]}',
    '{"dims": [4, 32, 32], "occlusion_z_range": [1, 2, 3]}',
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, 2], "radius_px": 2, "contact_z_range": [0, 1.5]}]}',
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
    # the reader converts JSON lists to tuples and nothing else
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, 2], "radius_px": "4", "contact_z_range": [0, 2]}]}',
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, 2], "radius_px": true, "contact_z_range": [0, 2]}]}',
    '{"dims": [4, 32, 32], "entry_xy": []}',
    '{"dims": [4, 32, 32], "entry_xy": 0}',
    '{"dims": [4, 32, 32], "entry_xy": false}',
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, 2], "radius_px": 4, "contact_z_range": [0, 2], "hu": 1}]}',
    '{"dims": [4, 32, 32], "bone_decoys": [{"center_xy": [1, 2, 3], "radius_px": 4, "contact_z_range": [0, 2]}]}',
    '{"dims": [4, 32, 32], "bone_decoys": [[1, 2]]}',
    '"dims"',
    '{"dims": [4, 32, 32], "patient_id": 5}',
    # intensities map exactly the four known keys; bone_decoys is a list of decoys
    '{"dims": [4, 32, 32], "intensities": {"background": 40, "lumen": 350, "occluded_lumen": 45, "bone": 900, "x": 1}}',
    '{"dims": [4, 32, 32], "intensities": null}',
    '{"dims": [4, 32, 32], "intensities": [40, 350, 45, 900]}',
    '{"dims": [4, 32, 32], "bone_decoys": null}',
    '{"dims": [4, 32, 32], "bone_decoys": {"center_xy": [1, 2], "radius_px": 4, "contact_z_range": [0, 2]}}',
])
def test_load_spec_raises_spec_invalid_for_a_malformed_file(tmp_path, text):
    (tmp_path / "phantom.json").write_text(text, encoding="utf-8")
    with pytest.raises(SpecInvalid, match="phantom.json"):
        load_spec(tmp_path)


@pytest.mark.parametrize("field, value", [
    ("intensities", None),
    ("intensities", [40.0, 350.0, 45.0, 900.0]),
    ("intensities", {**DEFAULT_INTENSITIES, "extra": "x"}),
    ("bone_decoys", None),
    ("bone_decoys", [{"center_xy": (4.0, 4.0), "radius_px": 2.0, "contact_z_range": (0, 1)}]),
    ("bone_decoys", (BoneDecoy(center_xy=(4.0, 4.0), radius_px=2.0, contact_z_range=(0, 1)),)),
])
def test_spec_built_in_code_rejects_malformed_intensities_and_bone_decoys(field, value):
    with pytest.raises(SpecInvalid, match=field):
        PhantomSpec(dims=(2, 8, 8), **{field: value})


def test_load_spec_errors_for_missing_and_non_utf8_files(tmp_path):
    with pytest.raises(MissingFile, match="phantom.json"):
        load_spec(tmp_path)
    (tmp_path / "phantom.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(SpecInvalid, match="phantom.json"):
        load_spec(tmp_path)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=range(len(ORACLE_SPECS)))
def test_every_oracle_spec_round_trips_through_json(spec):
    assert PhantomSpec.from_json(spec.to_json()) == spec


def test_from_json_reads_null_as_the_default_entry_and_bifurcation():
    spec = PhantomSpec.from_json('{"dims": [6, 32, 40], "entry_xy": null, "bifurcation_z": null}')
    assert spec.entry_xy == (20.0, 16.0)
    assert spec.bifurcation_z == 3


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
