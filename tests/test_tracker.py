"""Baseline tracker behavior, including its deliberate failure modes."""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

import vesselseg
from vesselseg import tracker
from vesselseg.errors import SeedOutOfWindow, SpecInvalid
from vesselseg.losses import patient_dice
from vesselseg.phantom import BoneDecoy, PhantomSpec, generate
from vesselseg.tracker import (
    EVENT_BONE_MERGE,
    EVENT_LOST,
    MAX_AREA_GROWTH,
    WINDOW_MARGIN_PX,
    TrackerConfig,
    connected_region,
    events_to_json,
    track_volume,
)
from vesselseg.volume_io import Volume, VolumeMeta

RNG = np.random.default_rng(404)


def flood_fill_region(in_window, seed_mask):
    """BFS oracle: union of the 8-connected components holding a seed pixel."""
    h, w = in_window.shape
    seen = np.zeros_like(in_window, dtype=bool)
    out = np.zeros_like(in_window, dtype=bool)
    steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    for sy in range(h):
        for sx in range(w):
            if not in_window[sy, sx] or seen[sy, sx]:
                continue
            component = []
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            while queue:
                y, x = queue.popleft()
                component.append((y, x))
                for dy, dx in steps:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and in_window[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            if any(seed_mask[y, x] for y, x in component):
                for y, x in component:
                    out[y, x] = True
    return out


def _full_slice_region(hu_slice, window, seed_mask):
    """Oracle: label the whole slice, keep the components with a seed pixel."""
    t_lo, t_hi = window
    in_window = (hu_slice >= t_lo) & (hu_slice <= t_hi)
    labels, n_labels = ndimage.label(in_window, structure=ndimage.generate_binary_structure(2, 2))
    if n_labels == 0:
        return np.zeros_like(in_window)
    keep = np.unique(labels[np.asarray(seed_mask).astype(bool)])
    keep = keep[keep != 0]  # label 0 is background
    return np.isin(labels, keep)


def paste(box, shape):
    """A (y, x, mask) box, or None, as a full-size bool map."""
    full = np.zeros(shape, dtype=bool)
    if box is not None:
        y, x, mask = box
        full[y : y + mask.shape[0], x : x + mask.shape[1]] = mask
    return full


def crop(full):
    """A full-size bool map as connected_region's (y, x, mask), or None if empty."""
    if not full.any():
        return None
    rows, cols = np.flatnonzero(full.any(axis=1)), np.flatnonzero(full.any(axis=0))
    return rows[0], cols[0], full[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def _full_slice_box(hu_slice, window, seed, y=0, x=0):
    """_full_slice_region with connected_region's box signature."""
    return crop(_full_slice_region(hu_slice, window, paste((y, x, seed), hu_slice.shape)))


def region_map(hu_slice, window, seed, y=0, x=0):
    """connected_region pasted into a full-size map, after checking its box is tight."""
    box = connected_region(hu_slice, window, seed, y, x)
    if box is not None:
        mask = box[2]
        assert mask.dtype == bool
        assert mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()
    return paste(box, hu_slice.shape)


def _record_label(monkeypatch, what):
    """Record what(image, n_labels) for each ndimage.label call, in call order."""
    records = []
    real_label = ndimage.label

    def recording_label(image, structure=None):
        labels, n_labels = real_label(image, structure=structure)
        records.append(what(image, n_labels))
        return labels, n_labels

    monkeypatch.setattr(ndimage, "label", recording_label)
    return records


@pytest.fixture
def label_shapes(monkeypatch):
    """The shapes of the images ndimage.label is called on, in call order."""
    return _record_label(monkeypatch, lambda image, n_labels: image.shape)


@pytest.fixture
def label_counts(monkeypatch):
    """The component counts ndimage.label returns, in call order."""
    return _record_label(monkeypatch, lambda image, n_labels: n_labels)


def drawn(draw, shape, joined_by):
    """draw(shape) as drawn (solid shapes, joined_by 4), or for joined_by 8
    drawn at half size with each pixel blown up to the main diagonal of a 2x2
    block: the drawing's pixels then touch only through diagonal neighbours,
    so only 8-connected labelling joins them."""
    if joined_by == 4:
        return draw(shape)
    half = draw((shape[0] // 2, shape[1] // 2))
    return np.kron(half, np.eye(2, dtype=int)).astype(bool)


def test_tracker_config_validation():
    with pytest.raises(SpecInvalid):
        TrackerConfig(t_lo=5, t_hi=5, seed_point=(0, 0))
    with pytest.raises(SpecInvalid):
        TrackerConfig(t_lo=6, t_hi=5, seed_point=(0, 0))


def test_connected_region_empty_when_below_window():
    hu = np.full((8, 8), 10.0)
    seed = np.zeros((8, 8), dtype=bool)
    seed[4, 4] = True
    assert connected_region(hu, (200, 500), seed) is None


def test_connected_region_exact_disk():
    yy, xx = np.mgrid[0:16, 0:16]
    disk = (xx - 8) ** 2 + (yy - 8) ** 2 < 16
    hu = np.where(disk, 300.0, 40.0)
    seed = np.zeros((16, 16), dtype=bool)
    seed[8, 8] = True
    region = region_map(hu, (200, 500), seed)
    np.testing.assert_array_equal(region, disk)
    np.testing.assert_array_equal(region, flood_fill_region(disk, seed))


def test_connected_region_keeps_only_overlapping_component():
    hu = np.full((8, 8), 40.0)
    hu[1:3, 1:3] = 300.0   # overlaps seed
    hu[5:7, 5:7] = 300.0   # does not
    seed = np.zeros((8, 8), dtype=bool)
    seed[1, 1] = True
    region = region_map(hu, (200, 500), seed)
    assert region[1:3, 1:3].all()
    assert region[5:7, 5:7].sum() == 0


def test_connected_region_min_overlap_threshold():
    """One seed pixel is enough for a component to survive."""
    hu = np.full((6, 6), 300.0)  # one big component
    seed = np.zeros((6, 6), dtype=bool)
    seed[0, 0] = True
    assert region_map(hu, (200, 500), seed).all()
    hu[0, 0] = 40.0  # the seed pixel leaves the window, so no pixel of the component is seeded
    assert not region_map(hu, (200, 500), seed).any()


@pytest.mark.parametrize("joined_by", [4, 8])
def test_connected_region_matches_flood_fill_oracle(joined_by):
    for _ in range(20):
        in_window = drawn(lambda s: RNG.uniform(size=s) < 0.45, (12, 12), joined_by)
        hu = np.where(in_window, 300.0, 40.0)
        seed = RNG.uniform(size=(12, 12)) < 0.1
        got = region_map(hu, (200, 500), seed)
        np.testing.assert_array_equal(got, flood_fill_region(in_window, seed))


HU_IN, HU_OUT = 300.0, 40.0
SLICE_SHAPES = [(64, 64), (96, 80)]


def assert_matches_oracles(in_window, seed):
    hu = np.where(in_window, HU_IN, HU_OUT)
    got = region_map(hu, (200, 500), seed)
    np.testing.assert_array_equal(got, _full_slice_region(hu, (200, 500), seed))
    np.testing.assert_array_equal(got, flood_fill_region(in_window, seed))
    return got


def random_blobs(shape, rng, count=12):
    """Sparse disks and bars, a few percent of the slice each."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    blobs = np.zeros(shape, dtype=bool)
    for _ in range(count):
        cy, cx = rng.integers(0, h), rng.integers(0, w)
        if rng.uniform() < 0.5:
            blobs |= (yy - cy) ** 2 + (xx - cx) ** 2 < rng.uniform(2, 7) ** 2
        else:
            blobs[cy : cy + rng.integers(1, 4), max(cx - 12, 0) : cx + 12] = True
    return blobs


def seed_patch(shape, rng, center, radius=4, density=0.4):
    seed = np.zeros(shape, dtype=bool)
    cy, cx = center
    patch = seed[max(cy - radius, 0) : cy + radius + 1, max(cx - radius, 0) : cx + radius + 1]
    patch[...] = rng.uniform(size=patch.shape) < density
    return seed


@pytest.mark.parametrize("shape", SLICE_SHAPES)
@pytest.mark.parametrize("joined_by", [4, 8])
@pytest.mark.parametrize("patches", [1, 2, 3])
def test_windowed_region_matches_oracles_on_random_blobs(shape, joined_by, patches):
    """Seed patches at random places, so the seed's box spans up to three of them."""
    rng = np.random.default_rng([shape[1], joined_by, patches])
    kept = 0
    for _ in range(12):
        blobs = drawn(lambda s: random_blobs(s, rng), shape, joined_by)
        seed = np.zeros(shape, dtype=bool)
        for _ in range(patches):
            seed |= seed_patch(shape, rng, tuple(rng.integers(0, shape)))
        kept += assert_matches_oracles(blobs, seed).any()
    assert kept > 0  # the seeds hit some blobs


def snake(shape, side):
    """A 1-px path from the slice center that leaves a window around the
    center through one side, runs along the slice border and ends there."""
    h, w = shape
    cy, cx = h // 2, w // 2
    path = np.zeros(shape, dtype=bool)
    if side == "top":
        path[1 : cy + 1, cx] = True
        path[1, 1 : cx + 1] = True
    elif side == "bottom":
        path[cy : h - 1, cx] = True
        path[h - 2, cx : w - 1] = True
    elif side == "left":
        path[cy, 1 : cx + 1] = True
        path[cy : h - 1, 1] = True
    else:
        path[cy, cx : w - 1] = True
        path[1 : cy + 1, w - 2] = True
    return path


@pytest.mark.parametrize("shape", SLICE_SHAPES)
@pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
@pytest.mark.parametrize("joined_by", [4, 8])
def test_windowed_region_follows_a_snake_out_of_the_window(shape, side, joined_by):
    in_window = drawn(lambda s: snake(s, side), shape, joined_by)
    seed = np.zeros(shape, dtype=bool)
    seed[shape[0] // 2, shape[1] // 2] = True
    assert in_window[seed].all()
    got = assert_matches_oracles(in_window, seed)
    np.testing.assert_array_equal(got, in_window)  # the whole snake, far outside the window


def spiral(shape):
    """Rings joined into one 1-px spiral, 2 px apart."""
    h, w = shape
    path = np.zeros(shape, dtype=bool)
    top, left, bottom, right = 1, 1, h - 2, w - 2
    while bottom - top > 4 and right - left > 4:
        path[top, left:right + 1] = True
        path[top:bottom + 1, right] = True
        path[bottom, left:right + 1] = True
        path[top + 2 : bottom + 1, left] = True
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
        path[top, left - 2 : left] = True
    return path


@pytest.mark.parametrize("shape", SLICE_SHAPES)
@pytest.mark.parametrize("joined_by", [4, 8])
def test_windowed_region_follows_a_spiral(shape, joined_by):
    h, w = shape
    in_window = drawn(spiral, shape, joined_by)
    pixels = np.argwhere(in_window)
    innermost = pixels[np.abs(pixels - (h // 2, w // 2)).sum(axis=1).argmin()]
    seed = np.zeros(shape, dtype=bool)
    seed[tuple(innermost)] = True
    np.testing.assert_array_equal(assert_matches_oracles(in_window, seed), in_window)
    noise = np.random.default_rng(7).uniform(size=shape) < 0.05
    assert_matches_oracles(in_window | noise, seed)


def u_shape(shape):
    """A U whose arms start near the top and whose base lies on the bottom row but one."""
    h, w = shape
    u = np.zeros(shape, dtype=bool)
    u[h * 5 // 16 : h - 2, w * 3 // 8] = True
    u[h * 5 // 16 : h - 2, w * 5 // 8] = True
    u[h - 2, w * 3 // 8 : w * 5 // 8 + 1] = True
    return u


@pytest.mark.parametrize("joined_by", [4, 8])
def test_windowed_region_counts_seed_pixels_across_window_pieces(joined_by):
    """The U's base lies outside the seed's window, so inside it the arms are
    separate pieces (or one arm is missing): the whole U is kept from a seed
    pixel in either or both arms."""
    h, w = 64, 64
    u = drawn(u_shape, (h, w), joined_by)
    left, right = (20, 24), (20, 40)  # the tops of the arms
    assert 20 + WINDOW_MARGIN_PX < h - 2  # the base is outside the window
    for seeded in ([left, right], [left], [right]):
        seed = np.zeros((h, w), dtype=bool)
        seed[tuple(zip(*seeded))] = True
        assert u[seed].all()
        np.testing.assert_array_equal(assert_matches_oracles(u, seed), u)


@pytest.mark.parametrize("shape", SLICE_SHAPES)
@pytest.mark.parametrize("joined_by", [4, 8])
def test_windowed_region_seeds_on_slice_edges(shape, joined_by):
    h, w = shape
    rng = np.random.default_rng(11)
    edge_pixels = [(0, w // 3), (h - 1, w // 2), (h // 3, 0), (h // 2, w - 1), (0, 0), (h - 1, w - 1)]
    for y, x in edge_pixels:

        def draw(s):  # a blob on the edge, under the seed
            blobs = random_blobs(s, rng, count=8)
            cy, cx = y * s[0] // h, x * s[1] // w
            blobs[max(cy - 3, 0) : cy + 4, max(cx - 5, 0) : cx + 6] = True
            return blobs

        blobs = drawn(draw, shape, joined_by)
        seed = seed_patch(shape, rng, (y, x), radius=2, density=0.8)
        got = assert_matches_oracles(blobs, seed)
        assert (seed & blobs).any() and got[seed & blobs].all()


@pytest.mark.parametrize("shape", SLICE_SHAPES)
def test_windowed_region_empty_seed(shape):
    blobs = random_blobs(shape, np.random.default_rng(3))
    got = assert_matches_oracles(blobs, np.zeros(shape, dtype=bool))
    assert not got.any()


@pytest.mark.parametrize("shape", SLICE_SHAPES)
@pytest.mark.parametrize("joined_by", [4, 8])
def test_windowed_region_seed_in_two_far_apart_components(shape, joined_by):
    h, w = shape
    rng = np.random.default_rng(5)

    def draw(s):  # two rectangles in opposite corners
        d = h // s[0]
        blobs = random_blobs(s, rng)
        blobs[4 // d : 10 // d, 4 // d : 12 // d] = True
        blobs[s[0] - 10 // d : s[0] - 4 // d, s[1] - 12 // d : s[1] - 4 // d] = True
        return blobs

    blobs = drawn(draw, shape, joined_by)
    seed = np.zeros(shape, dtype=bool)
    seed[6:8, 6:9] = True
    seed[h - 8 : h - 6, w - 9 : w - 6] = True
    got = assert_matches_oracles(blobs, seed)
    assert got[6, 6] and got[h - 7, w - 7]


def two_discs():
    """Radius-6 discs centered at (24, 12) and (24, 36) of a 48 x 48 slice, by name."""
    yy, xx = np.mgrid[0:48, 0:48]
    return {"left": (yy - 24) ** 2 + (xx - 12) ** 2 < 36, "right": (yy - 24) ** 2 + (xx - 36) ** 2 < 36}


@pytest.mark.parametrize("discs, seed_pixels, first_count, kept", [
    (["left"], [(24, 12)], 1, True),  # one component, hit
    (["left"], [(24, 24), (24, 36)], 1, False),  # one component (a sliver of the left disc), missed
    (["left", "right"], [(24, 24), (24, 36)], 2, True),  # two components, the left one missed
    (["left", "right"], [(24, 12), (24, 36)], 2, True),  # two components, both hit
    ([], [(24, 12)], 0, False),  # no component
])
def test_connected_region_branches_match_the_oracle(label_counts, discs, seed_pixels, first_count, kept):
    """Each branch of the per-box step against whole-slice labelling: one
    component (the window mask, or None) and none or two (labels looked up
    under the seed). first_count is the first box's label count."""
    shapes = two_discs()
    in_window = np.zeros((48, 48), dtype=bool)
    for name in discs:
        in_window |= shapes[name]
    seed = np.zeros((48, 48), dtype=bool)
    seed[tuple(zip(*seed_pixels))] = True
    hu = np.where(in_window, HU_IN, HU_OUT)
    got = connected_region(hu, (200, 500), seed)
    want = _full_slice_box(hu, (200, 500), seed)
    assert label_counts[0] == first_count and (got is not None) == kept
    if want is None:
        assert got is None
    else:
        assert got[:2] == tuple(want[:2]) and got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("shape", SLICE_SHAPES)
def test_seeds_with_empty_edges_give_the_cropped_seeds_result(shape):
    """A seed with an empty edge row or column is cropped to its pixels; the
    region equals that of the cropped seed, and of whole-slice labelling."""
    cases = 0
    for name, in_window, seed in offset_drawings(shape):
        hu = np.where(in_window, HU_IN, HU_OUT)
        r0, c0, tight = crop(seed)
        rows, cols = tight.shape
        h, w = shape
        for top, bottom, left, right in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 3, 1, 4)]:
            y, x = r0 - top, c0 - left
            if y < 0 or x < 0 or r0 + rows + bottom > h or c0 + cols + right > w:
                continue
            loose = seed[y : r0 + rows + bottom, x : c0 + cols + right]
            got = connected_region(hu, (200, 500), loose, y, x)
            want = connected_region(hu, (200, 500), tight, r0, c0)
            oracle = _full_slice_box(hu, (200, 500), loose, y, x)
            for box in (want, oracle):
                assert (got is None) == (box is None), name
                if got is not None:
                    assert got[:2] == tuple(box[:2]) and got[2].tobytes() == box[2].tobytes(), name
            cases += 1
    assert cases > 50


def clean_spec(**overrides):
    base = dict(dims=(24, 32, 32), seed=31, trunk_radius_px=7.0, branch_radius_px=3.0, bifurcation_z=12)
    base.update(overrides)
    return PhantomSpec(**base)


def test_track_clean_phantom_high_dice():
    vol, mask = generate(clean_spec())
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(16, 16))
    pred, events = track_volume(vol, cfg)
    assert patient_dice(pred, mask) >= 0.8
    assert not any(e.kind == EVENT_LOST for e in events)


def test_track_occlusion_lost_forever():
    vol, mask = generate(clean_spec(occlusion_z_range=(8, 14)))
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(16, 16))
    pred, events = track_volume(vol, cfg)
    lost = [e for e in events if e.kind == EVENT_LOST]
    assert len(lost) == 1
    assert lost[0].z == 8
    assert pred.voxels[8:].sum() == 0          # empty from onset on, no re-acquisition
    assert pred.voxels[:8].sum() > 0
    assert mask.voxels[8:14].sum() > 0          # truth still labels the occluded tube


def test_track_monotone_failure_property():
    vol, _ = generate(clean_spec(occlusion_z_range=(5, 9)))
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(16, 16))
    pred, _ = track_volume(vol, cfg)
    areas = pred.voxels.reshape(24, -1).sum(axis=1)
    first_empty = int(np.argmax(areas == 0))
    assert (areas[first_empty:] == 0).all()


def test_track_pixels_stay_in_window():
    vol, _ = generate(clean_spec())
    cfg = TrackerConfig(t_lo=250, t_hi=430, seed_point=(16, 16))
    pred, _ = track_volume(vol, cfg)
    tracked = pred.voxels.astype(bool)
    values = vol.voxels[tracked]
    assert values.size > 0
    assert (values >= 250).all() and (values <= 430).all()


def test_track_deterministic():
    vol, _ = generate(clean_spec())
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(16, 16))
    p1, e1 = track_volume(vol, cfg)
    p2, e2 = track_volume(vol, cfg)
    assert np.array_equal(p1.voxels, p2.voxels)
    assert e1 == e2


def test_track_volume_returns_uint8_voxels():
    vol, _ = generate(clean_spec())
    pred, _ = track_volume(vol, TrackerConfig(t_lo=200, t_hi=500, seed_point=(16, 16)))
    assert pred.voxels.dtype == np.uint8 and np.unique(pred.voxels).tolist() == [0, 1]


def test_track_seed_out_of_window():
    vol, _ = generate(clean_spec())
    with pytest.raises(SeedOutOfWindow):
        track_volume(vol, TrackerConfig(t_lo=200, t_hi=500, seed_point=(0, 0)))
    with pytest.raises(SeedOutOfWindow):
        track_volume(vol, TrackerConfig(t_lo=200, t_hi=500, seed_point=(99, 0)))


def test_track_bone_merge_reported_not_corrected():
    decoy = BoneDecoy(center_xy=(25.0, 16.0), radius_px=6.0, contact_z_range=(14, 24))
    spec = clean_spec(bone_decoys=[decoy], branch_half_angle_deg=20.0)
    vol, _ = generate(spec)
    cfg = TrackerConfig(t_lo=200, t_hi=950, seed_point=(16, 16))
    pred, events = track_volume(vol, cfg)
    suspects = [e for e in events if e.kind == EVENT_BONE_MERGE]
    assert suspects, "bone contact must be flagged"
    assert 14 <= suspects[0].z < 24
    yy, xx = np.mgrid[0:32, 0:32]
    bone = (xx - 25.0) ** 2 + (yy - 16.0) ** 2 < 36.0
    z = suspects[0].z
    assert pred.voxels[z][bone].sum() > 0  # tracking continues into the bone
    assert not any(e.kind == EVENT_LOST for e in events)


def test_track_flags_growth_beyond_max_area_growth():
    """Growing to MAX_AREA_GROWTH times the previous area is no event; more is a bone-merge suspect."""
    assert MAX_AREA_GROWTH == 4.0
    meta = VolumeMeta(height=32, width=32, num_slices=3, spacing_mm=(1.0, 1.0, 1.0), patient_id="grow")
    voxels = np.full((3, 32, 32), 40, dtype=np.int16)
    voxels[0, 10:14, 10:14] = 300  # 16 px
    voxels[1, 8:16, 8:16] = 300  # 64 px, 4 times 16
    voxels[2, 0:16, 0:17] = 300  # 272 px, more than 4 times 64
    pred, events = track_volume(Volume(meta=meta, voxels=voxels), TrackerConfig(200, 500, seed_point=(11, 11)))
    assert [(e.z, e.kind) for e in events] == [(2, EVENT_BONE_MERGE)]
    assert pred.voxels.reshape(3, -1).sum(axis=1).tolist() == [16, 64, 272]


def test_events_json():
    vol, _ = generate(clean_spec(occlusion_z_range=(8, 14)))
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(16, 16))
    _, events = track_volume(vol, cfg)
    text = events_to_json(events)
    assert '"kind": "lost"' in text


def scaled_phantom(hw, kind):
    """The occlusion or bone-merge phantom above, at hw x hw."""
    s = hw / 32.0
    overrides = dict(dims=(24, hw, hw), trunk_radius_px=7.0 * s, branch_radius_px=3.0 * s,
                     entry_xy=(16.0 * s, 16.0 * s))
    if kind == "occlusion":
        overrides["occlusion_z_range"] = (8, 14)
        window = (200, 500)
    else:
        bone = BoneDecoy(center_xy=(25.0 * s, 16.0 * s), radius_px=6.0 * s, contact_z_range=(14, 24))
        overrides["bone_decoys"] = [bone]
        overrides["branch_half_angle_deg"] = 20.0
        window = (200, 950)
    vol, _ = generate(clean_spec(**overrides))
    return vol, TrackerConfig(t_lo=window[0], t_hi=window[1], seed_point=(int(16 * s), int(16 * s)))


@pytest.mark.parametrize("hw", [64, 256, 512])
@pytest.mark.parametrize("kind", ["occlusion", "bone"])
def test_track_matches_full_slice_walk(monkeypatch, hw, kind):
    """Every slice, slice 0 included, against whole-slice labelling."""
    vol, cfg = scaled_phantom(hw, kind)
    pred, events = track_volume(vol, cfg)
    monkeypatch.setattr(tracker, "connected_region", _full_slice_box)
    want_pred, want_events = track_volume(vol, cfg)
    assert pred.voxels.tobytes() == want_pred.voxels.tobytes()
    assert events == want_events
    want_kind = EVENT_LOST if kind == "occlusion" else EVENT_BONE_MERGE
    assert any(e.kind == want_kind for e in events)


@pytest.mark.parametrize("window", [(199.5, 500.5), (200.25, 499.75), (float("-inf"), 500), (200, float("inf")),
                                    (-1e9, 1e9), (np.float32(200.5), np.int64(950))])
@pytest.mark.parametrize("kind", ["occlusion", "bone"])
def test_track_with_int16_bounds_equals_the_float_window_walk(monkeypatch, window, kind):
    """track_volume applies the window as int16 bounds; a whole-slice walk
    that compares the voxels with the float window gives the same bytes.
    Uniform noise of +-160 HU puts voxels on both sides of every bound."""
    vol, cfg = scaled_phantom(64, kind)
    noise = np.random.default_rng(9).integers(-160, 161, size=vol.voxels.shape)
    vol = Volume(meta=vol.meta, voxels=vol.voxels + noise)
    sx, sy = cfg.seed_point
    vol.voxels[0, sy, sx] = 350  # the seed pixel stays in every window
    cfg = TrackerConfig(t_lo=window[0], t_hi=window[1], seed_point=cfg.seed_point)
    pred, events = track_volume(vol, cfg)
    float_window = (cfg.t_lo, cfg.t_hi)
    monkeypatch.setattr(tracker, "connected_region",
                        lambda hu, _window, seed, y=0, x=0: _full_slice_box(hu, float_window, seed, y, x))
    want_pred, want_events = track_volume(vol, cfg)
    assert pred.voxels.tobytes() == want_pred.voxels.tobytes() and events == want_events


def test_track_labels_a_window_not_the_slice(label_shapes):
    """Guard against whole-slice labelling coming back."""
    # a trunk of a seventh of the slice width, as in the 512^2 benchmark phantoms
    spec = clean_spec(dims=(24, 256, 256), trunk_radius_px=36.0, branch_radius_px=12.0,
                      entry_xy=(128.0, 128.0), occlusion_z_range=(16, 20))
    vol, _ = generate(spec)
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(128, 128))
    pred, _ = track_volume(vol, cfg)
    areas = [h * w for h, w in label_shapes]
    assert len(areas) >= 8 and pred.voxels.any()
    assert np.mean(areas) / (256 * 256) < 0.25


def test_track_labels_less_than_half_of_slice_0(label_shapes):
    """Slice 0 grows its box from the one-pixel seed, doubling the margin
    while the vessel reaches an inner edge: the boxes together cover less
    than half the slice, and the mask is the whole-slice one."""
    spec = clean_spec(dims=(1, 256, 256), trunk_radius_px=36.0, branch_radius_px=12.0,
                      entry_xy=(128.0, 128.0), bifurcation_z=0)
    vol, _ = generate(spec)
    cfg = TrackerConfig(t_lo=200, t_hi=500, seed_point=(128, 128))
    pred, events = track_volume(vol, cfg)
    assert len(label_shapes) > 1 and sum(h * w for h, w in label_shapes) < 256 * 256 / 2
    assert pred.voxels[0].sum() > (2 * WINDOW_MARGIN_PX + 1) ** 2 and events == []
    seed = np.zeros((256, 256), dtype=bool)
    seed[128, 128] = True
    np.testing.assert_array_equal(pred.voxels[0], _full_slice_region(vol.voxels[0], (200, 500), seed))


def offset_drawings(shape):
    """(name, in-window map, full-size seed) on the blob, snake and spiral drawings."""
    h, w = shape
    rng = np.random.default_rng([h, w])
    center = np.zeros(shape, dtype=bool)
    center[h // 2, w // 2] = True
    for joined_by in (4, 8):
        for side in ("top", "bottom", "left", "right"):
            yield f"snake-{side}-{joined_by}", drawn(lambda s: snake(s, side), shape, joined_by), center
        spiral_map = drawn(spiral, shape, joined_by)
        pixels = np.argwhere(spiral_map)
        inner = np.zeros(shape, dtype=bool)
        inner[tuple(pixels[np.abs(pixels - (h // 2, w // 2)).sum(axis=1).argmin()])] = True
        yield f"spiral-{joined_by}", spiral_map, inner
        for k in range(4):
            seed = np.zeros(shape, dtype=bool)
            for _ in range(k + 1):
                seed |= seed_patch(shape, rng, tuple(rng.integers(0, shape)))
            yield f"blobs-{k}-{joined_by}", drawn(lambda s: random_blobs(s, rng), shape, joined_by), seed


@pytest.mark.parametrize("shape", SLICE_SHAPES)
def test_offset_seed_boxes_give_the_full_size_result(shape):
    """A seed handed over as a sub-array at (y, x) != (0, 0), with empty rows
    and columns around its pixels, gives the full-size seed's region."""
    offsets = []
    for name, in_window, seed in offset_drawings(shape):
        hu = np.where(in_window, HU_IN, HU_OUT)
        want = assert_matches_oracles(in_window, seed)
        rows, cols = np.flatnonzero(seed.any(axis=1)), np.flatnonzero(seed.any(axis=0))
        for pad in (0, 1, 3):
            y, x = max(rows[0] - pad, 0), max(cols[0] - pad, 0)
            sub = seed[y : rows[-1] + 1 + pad, x : cols[-1] + 1 + pad]
            assert sub.sum() == seed.sum()
            got = region_map(hu, (200, 500), sub, y, x)
            np.testing.assert_array_equal(got, want, err_msg=f"{name} pad {pad}")
            offsets.append(y > 0 and x > 0)
    assert np.mean(offsets) > 0.8  # seed patches may sit on the slice's top or left edge


@pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
def test_margin_doubles_until_the_snake_fits(label_shapes, side):
    """A snake that runs to the far slice border is found by labelling boxes
    whose margin doubles from WINDOW_MARGIN_PX, each larger than the last."""
    shape = (96, 80)
    in_window = snake(shape, side)
    got = region_map(np.where(in_window, HU_IN, HU_OUT), (200, 500), np.ones((1, 1), dtype=bool), 48, 40)
    np.testing.assert_array_equal(got, in_window)
    shapes = label_shapes
    assert shapes[0] == (2 * WINDOW_MARGIN_PX + 1,) * 2
    assert len(shapes) > 1 and all(a[0] <= b[0] and a[1] <= b[1] and a != b for a, b in zip(shapes, shapes[1:]))
    assert shapes[-1][0] <= shape[0] and shapes[-1][1] <= shape[1]


@pytest.mark.parametrize("seed_point", [(16.0, 16), (16,), (16, 16, 0), (True, 16), "16,16", None])
def test_tracker_config_rejects_seed_point_not_two_ints(seed_point):
    with pytest.raises(SpecInvalid):
        TrackerConfig(t_lo=200, t_hi=500, seed_point=seed_point)


@pytest.mark.parametrize("window", [("100", "500"), (None, 500), (float("nan"), 500), (200, float("nan"))])
def test_tracker_config_rejects_non_numeric_thresholds(window):
    with pytest.raises(SpecInvalid):
        TrackerConfig(t_lo=window[0], t_hi=window[1], seed_point=(16, 16))


def test_tracker_config_accepts_numpy_ints_and_infinite_thresholds():
    vol, _ = generate(clean_spec())
    seed_point = (np.int64(16), np.int64(16))
    cfg = TrackerConfig(t_lo=200, t_hi=float("inf"), seed_point=seed_point)
    pred, events = track_volume(vol, cfg)
    assert pred.voxels[0, 16, 16] == 1 and not any(e.kind == EVENT_LOST for e in events)
    TrackerConfig(t_lo=float("-inf"), t_hi=float("inf"), seed_point=(0, 0))


_TRACK_VOLUME_512 = """
import time
import numpy as np
from vesselseg.phantom import BoneDecoy, PhantomSpec, generate
from vesselseg.tracker import EVENT_LOST, TrackerConfig, track_volume

# a 64-slice 512^2 phantom whose occlusion starts past the bifurcation,
# with two bone decoys, so the tracker walks 45 slices before it is lost
spec = PhantomSpec(
    dims=(64, 512, 512), seed=1, entry_xy=(256.0, 256.0), trunk_radius_px=80.0,
    branch_radius_px=24.0, bifurcation_z=28, branch_half_angle_deg=12.0, occlusion_z_range=(44, 50),
    bone_decoys=[BoneDecoy((96.0, 96.0), 32.0, (4, 44)), BoneDecoy((416.0, 416.0), 24.0, (10, 60))],
)
vol, _ = generate(spec)
cfg = TrackerConfig(t_lo=200.0, t_hi=500.0, seed_point=(256, 256))
times = []
for _ in range(11):  # the first call warms up
    start = time.perf_counter()
    mask, events = track_volume(vol, cfg)
    times.append(time.perf_counter() - start)
if [e.z for e in events if e.kind == EVENT_LOST] != [44] or not mask.voxels[:44].any():
    raise SystemExit(f"bad track {events}")
print(float(np.median(times[1:])))  # seconds per track_volume call
"""


def test_track_volume_of_a_64_slice_512_volume_runs_in_a_fresh_process():
    """track_volume on a 64-slice 512^2 late-occlusion phantom, as CI times
    it: lost where the occlusion starts, and a positive median time."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACK_VOLUME_512], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert float(proc.stdout.split()[-1]) > 0
