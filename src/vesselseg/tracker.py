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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np
from scipy import ndimage

from .errors import SeedOutOfWindow, SpecInvalid
from .volume_io import MaskVolume, Volume

EVENT_LOST = "lost"
EVENT_BONE_MERGE = "bone_merge_suspect"

# Pixels added on each side of the seed's bounding box before labelling.
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
        if not (isinstance(seed, (tuple, list)) and len(seed) == 2 and all(map(_is_int, seed))):
            raise SpecInvalid(f"seed_point must be two ints (x, y), got {seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


@dataclass
class TrackEvent:
    z: int
    kind: str
    detail: str


def connected_region(hu_slice: np.ndarray, window: tuple[float, float], seed_mask: np.ndarray) -> np.ndarray:
    """In-window 8-connected components overlapping the seed, as a bool map.

    A component survives iff at least one of its pixels is set in
    seed_mask; the union of survivors is returned (possibly empty).

    Only the seed's bounding box grown by WINDOW_MARGIN_PX is labelled. A
    component of that box which holds a seed pixel and touches none of its
    inner edges (box edges that are not slice edges) has all its
    neighbours inside the box, so it is a whole component of the slice;
    components without a seed pixel never survive. If a component holding
    a seed pixel touches an inner edge, the whole slice is labelled once
    more, so the result always equals labelling the whole slice.
    """
    seed = np.asarray(seed_mask, dtype=bool)
    out = np.zeros(hu_slice.shape, dtype=bool)
    rows = np.flatnonzero(seed.any(axis=1))
    if rows.size == 0:
        return out
    cols = np.flatnonzero(seed[rows[0] : rows[-1] + 1].any(axis=0))
    h, w = hu_slice.shape
    y0, y1 = max(rows[0] - WINDOW_MARGIN_PX, 0), min(rows[-1] + 1 + WINDOW_MARGIN_PX, h)
    x0, x1 = max(cols[0] - WINDOW_MARGIN_PX, 0), min(cols[-1] + 1 + WINDOW_MARGIN_PX, w)
    box = (slice(y0, y1), slice(x0, x1))
    labels, counts = _label_overlaps(hu_slice[box], window, seed[box])
    edges = (labels[0], y0 > 0), (labels[-1], y1 < h), (labels[:, 0], x0 > 0), (labels[:, -1], x1 < w)
    if any(inner and counts[edge].any() for edge, inner in edges):  # a seed-holding component leaves the box
        return _whole_slice_region(hu_slice, window, seed)
    out[box] = (counts > 0)[labels]
    return out


def _whole_slice_region(hu_slice, window, seed) -> np.ndarray:
    """connected_region by labelling the whole slice at once."""
    labels, counts = _label_overlaps(hu_slice, window, seed)
    return (counts > 0)[labels]


def _label_overlaps(hu, window, seed):
    """Labels of hu's in-window components, and each label's seed-pixel count.

    The count of label 0 (background) is set to 0, so it is never kept.
    """
    t_lo, t_hi = window
    in_window = (hu >= t_lo) & (hu <= t_hi)
    labels, n_labels = ndimage.label(in_window, structure=_EIGHT_CONNECTED)
    counts = np.bincount(labels[seed], minlength=n_labels + 1)
    counts[0] = 0
    return labels, counts


def track_volume(volume: Volume, cfg: TrackerConfig) -> tuple[MaskVolume, list[TrackEvent]]:
    """Walk the stack slice by slice from a single seed pixel on slice 0.

    Slice 0 is labelled whole: a vessel wider than WINDOW_MARGIN_PX reaches
    the edge of the one-pixel seed's box, so the windowed labelling would
    label that slice twice. Later slices use connected_region.
    """
    sx, sy = cfg.seed_point
    if not (0 <= sx < volume.meta.width and 0 <= sy < volume.meta.height):
        raise SeedOutOfWindow(f"seed point {cfg.seed_point} outside the slice")
    seed_value = volume.voxels[0, sy, sx]
    if not cfg.t_lo <= seed_value <= cfg.t_hi:
        raise SeedOutOfWindow(
            f"seed pixel value {seed_value} HU outside window [{cfg.t_lo}, {cfg.t_hi}]"
        )

    out = np.zeros(volume.meta.shape, dtype=np.uint8)
    events: list[TrackEvent] = []
    window = (cfg.t_lo, cfg.t_hi)

    seed_mask = np.zeros((volume.meta.height, volume.meta.width), dtype=bool)
    seed_mask[sy, sx] = True
    prev_area = None
    lost = False
    for z in range(volume.meta.num_slices):
        if lost:
            break  # remaining slices stay empty
        find = _whole_slice_region if z == 0 else connected_region
        region = find(volume.voxels[z], window, seed_mask)
        area = np.count_nonzero(region)
        if area == 0:
            events.append(TrackEvent(z=z, kind=EVENT_LOST, detail="no in-window component overlaps the track"))
            lost = True
            continue
        if prev_area is not None and area > MAX_AREA_GROWTH * prev_area:
            events.append(
                TrackEvent(
                    z=z,
                    kind=EVENT_BONE_MERGE,
                    detail=f"region area jumped {prev_area} -> {area} px",
                )
            )
        out[z] = region
        seed_mask = region
        prev_area = area
    return MaskVolume(meta=volume.meta, voxels=out), events


def events_to_json(events: list[TrackEvent]) -> str:
    return json.dumps([asdict(e) for e in events], indent=2)
