"""Intensity-window object tracking across slices, failure modes included.

The tracker thresholds each slice into an intensity window, keeps the
connected components that overlap the previous slice's region, and walks
down the stack. Its rules are fixed: components are 8-connected, one
pixel of the previous region is enough for a component to survive, and
an area more than MAX_AREA_GROWTH times the previous slice's is reported
as a suspected bone merge. Two deliberate limitations define its
behaviour:

  * once a slice produces an empty region the track is lost for good
    (no re-acquisition), so an occluded vessel segment kills everything
    below it, and
  * when a bright structure such as bone touches the vessel and shares
    its intensity window, the merged component is kept; a sudden area
    explosion is only reported, never corrected.

The walk carries the region in box form, (y, x, mask) with mask cropped
to the region's bounding box, from the seed pixel on slice 0 on.
connected_region labels only that box grown by WINDOW_MARGIN_PX and
doubles the margin while the kept region reaches an inner edge of the
box, so its result always equals labelling the whole slice. A box that
labels as one component is the region itself (or nothing, if no seed
pixel lies in it), so labels are looked up under the seed only when there
are two or more. The window is applied as int16 bounds [ceil(t_lo),
floor(t_hi)], which select the same int16 voxels as the float window, and
the output is built as bool, which MaskVolume takes unscanned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np
from scipy import ndimage

from .errors import SeedOutOfWindow, SpecInvalid
from .volume_io import MaskVolume, Volume, is_int

EVENT_LOST = "lost"
EVENT_BONE_MERGE = "bone_merge_suspect"

# Pixels added on each side of the seed's box before labelling.
WINDOW_MARGIN_PX = 8
# A region more than this many times the previous slice's area is a suspected bone merge.
MAX_AREA_GROWTH = 4.0

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class TrackerConfig:
    t_lo: float
    t_hi: float
    seed_point: tuple[int, int]  # (x, y) on slice 0

    def __post_init__(self):
        if not (_is_real(self.t_lo) and _is_real(self.t_hi) and self.t_lo < self.t_hi):
            raise SpecInvalid(f"threshold window needs numbers t_lo < t_hi, got [{self.t_lo!r}, {self.t_hi!r}]")
        seed = self.seed_point
        if not (isinstance(seed, (tuple, list)) and len(seed) == 2 and all(map(is_int, seed))):
            raise SpecInvalid(f"seed_point must be two ints (x, y), got {seed!r}")


def _is_real(value) -> bool:
    return is_int(value) or isinstance(value, (float, np.floating))


@dataclass
class TrackEvent:
    z: int
    kind: str
    detail: str


def connected_region(
    hu_slice: np.ndarray, window: tuple[float, float], seed: np.ndarray, y: int = 0, x: int = 0
) -> tuple[int, int, np.ndarray] | None:
    """In-window 8-connected components of hu_slice overlapping the seed, in box form.

    seed is a bool array whose top-left pixel sits at (y, x) of the slice;
    the defaults take a full-size seed. A component survives iff at least
    one of its pixels is set in seed. The union of survivors is returned as
    (y, x, mask): mask is cropped to the survivors' bounding box and its
    top-left pixel sits at (y, x). None means no component survives.

    Only the seed's box (the part of the slice the seed array covers) grown
    by WINDOW_MARGIN_PX is labelled; a seed with empty edge rows or columns
    just starts from a larger box. A kept component (one that holds a seed
    pixel) which touches none of the box's inner edges (edges that are not
    slice edges) has all its neighbours inside the box, so it is a whole
    component of the slice; components without a seed pixel never survive.
    If the kept region's bounding box reaches an inner edge, the margin
    doubles and the larger box is labelled, at worst the whole slice, so
    the result always equals labelling the whole slice. A box that labels
    as one component needs no lookup: the in-window mask is the region when
    a seed pixel lies in it, and nothing survives otherwise.

    The window is compared with the slice's own dtype, so track_volume
    passes int16 bounds for its int16 voxels (no float copy of each box).
    """
    seed = np.asarray(seed, dtype=bool)
    h, w = hu_slice.shape
    t_lo, t_hi = window
    margin = WINDOW_MARGIN_PX
    while True:
        y0, y1 = max(y - margin, 0), min(y + seed.shape[0] + margin, h)
        x0, x1 = max(x - margin, 0), min(x + seed.shape[1] + margin, w)
        hu = hu_slice[y0:y1, x0:x1]
        in_window = (hu >= t_lo) & (hu <= t_hi)
        labels, n_labels = ndimage.label(in_window, structure=_EIGHT_CONNECTED)
        under_seed = (slice(y - y0, y - y0 + seed.shape[0]), slice(x - x0, x - x0 + seed.shape[1]))
        if n_labels == 1:  # the one component is the window mask: kept iff a seed pixel lies in it
            if not in_window[under_seed][seed].any():
                return None
            region = in_window
        else:
            keep = np.zeros(n_labels + 1, dtype=bool)
            keep[labels[under_seed][seed]] = True
            keep[0] = False  # background
            region = keep.take(labels, mode="clip")  # labels lie in [0, n_labels]: the clip moves none
        bounds = _bounds(region)
        if bounds is None:
            return None
        r0, r1, c0, c1 = bounds
        if not (r0 == 0 < y0 or (r1 == y1 - y0 and y1 < h) or c0 == 0 < x0 or (c1 == x1 - x0 and x1 < w)):
            return y0 + r0, x0 + c0, region[r0:r1, c0:c1]
        margin *= 2  # the kept region reaches an inner edge of the box


def _bounds(mask: np.ndarray):
    """(r0, r1, c0, c1), the half-open bounding box of mask's set pixels, or None if there are none."""
    rows = mask.any(axis=1).nonzero()[0]
    if rows.size == 0:
        return None
    cols = mask[rows[0] : rows[-1] + 1].any(axis=0).nonzero()[0]
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def track_volume(volume: Volume, cfg: TrackerConfig) -> tuple[MaskVolume, list[TrackEvent]]:
    """Walk the stack slice by slice from a single seed pixel on slice 0.

    The track is carried as a box, (y, x, mask): slice 0 starts from the
    seed pixel as a 1x1 mask, and each slice's region seeds the next, so
    no per-slice array is the size of the slice.
    """
    sx, sy = cfg.seed_point
    if not (0 <= sx < volume.meta.width and 0 <= sy < volume.meta.height):
        raise SeedOutOfWindow(f"seed point {cfg.seed_point} outside the slice")
    seed_value = volume.voxels[0, sy, sx]
    if not cfg.t_lo <= seed_value <= cfg.t_hi:
        raise SeedOutOfWindow(
            f"seed pixel value {seed_value} HU outside window [{cfg.t_lo}, {cfg.t_hi}]"
        )

    out = np.zeros(volume.meta.shape, dtype=bool)  # a bool mask needs no value scan in MaskVolume
    events: list[TrackEvent] = []
    # The int16 voxels in [t_lo, t_hi] are those in [ceil(t_lo), floor(t_hi)].
    # The seed pixel lies in the window, so ceil(t_lo) <= int16 max and
    # floor(t_hi) >= int16 min, and clipping to int16 changes no selection.
    info = np.iinfo(np.int16)
    window = tuple(np.int16(np.clip(v, info.min, info.max)) for v in (np.ceil(cfg.t_lo), np.floor(cfg.t_hi)))

    region = (sy, sx, np.ones((1, 1), dtype=bool))
    prev_area = None
    for z in range(volume.meta.num_slices):
        region = connected_region(volume.voxels[z], window, region[2], region[0], region[1])
        if region is None:
            events.append(TrackEvent(z=z, kind=EVENT_LOST, detail="no in-window component overlaps the track"))
            break  # the remaining slices stay empty
        y, x, mask = region
        area = np.count_nonzero(mask)
        if prev_area is not None and area > MAX_AREA_GROWTH * prev_area:
            events.append(
                TrackEvent(
                    z=z,
                    kind=EVENT_BONE_MERGE,
                    detail=f"region area jumped {prev_area} -> {area} px",
                )
            )
        out[z, y : y + mask.shape[0], x : x + mask.shape[1]] = mask
        prev_area = area
    return MaskVolume(meta=volume.meta, voxels=out), events


def events_to_json(events: list[TrackEvent]) -> str:
    return json.dumps([asdict(e) for e in events], indent=2)
