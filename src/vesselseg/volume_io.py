"""On-disk volume format, loading and saving, and HU normalization.

A "patient directory" holds three files:

    meta.json    {"patient_id": str, "height": int, "width": int,
                  "num_slices": int, "spacing_mm": [x, y, z],
                  "dtype": "int16-le"}
    volume.raw   little-endian int16, slice-major (z, then row y, then
                 column x), no header
    mask.raw     one unsigned byte per voxel in {0, 1}, same ordering

Volumes carry signed 16-bit Hounsfield units. Slices are normalized into
[0, 1] with a configurable HU window before entering the model; the model
input is the normalized slice replicated to three channels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidLabel, MetaParseError, MissingFile, SizeMismatch

META_FILENAME = "meta.json"
VOLUME_FILENAME = "volume.raw"
MASK_FILENAME = "mask.raw"

# Spans soft tissue through contrast-enhanced lumen and calcification.
DEFAULT_HU_WINDOW = (-100.0, 900.0)


@dataclass(frozen=True)
class VolumeMeta:
    """Dimensions, voxel spacing and identity of one patient stack."""

    height: int
    width: int
    num_slices: int
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    patient_id: str = ""

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.num_slices < 1:
            raise MetaParseError(
                f"dimensions must be >= 1, got {self.num_slices}x{self.height}x{self.width}"
            )
        if any(s <= 0 for s in self.spacing_mm):
            raise MetaParseError(f"spacing_mm components must be > 0, got {self.spacing_mm}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Voxel array shape in (z, y, x) order."""
        return (self.num_slices, self.height, self.width)

    @property
    def voxel_count(self) -> int:
        return self.num_slices * self.height * self.width


@dataclass
class Volume:
    """A CTA stack: int16 HU voxels in (z, y, x) order."""

    meta: VolumeMeta
    voxels: np.ndarray

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.int16)
        if self.voxels.shape != self.meta.shape:
            raise SizeMismatch(
                f"voxel shape {self.voxels.shape} does not match meta {self.meta.shape}"
            )


@dataclass
class MaskVolume:
    """A binary annotation stack aligned with a Volume."""

    meta: VolumeMeta
    voxels: np.ndarray

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.uint8)
        if self.voxels.shape != self.meta.shape:
            raise SizeMismatch(
                f"mask shape {self.voxels.shape} does not match meta {self.meta.shape}"
            )
        bad = (self.voxels > 1).sum()
        if bad:
            raise InvalidLabel(f"{bad} mask voxels are neither 0 nor 1")


@dataclass(frozen=True)
class HuWindow:
    """Intensity window mapped linearly onto [0, 1]."""

    lo: float = DEFAULT_HU_WINDOW[0]
    hi: float = DEFAULT_HU_WINDOW[1]

    def __post_init__(self):
        if not all(is_finite_number(v) for v in (self.lo, self.hi)) or not self.lo < self.hi:
            raise MetaParseError(f"hu_window needs finite numbers lo < hi, got [{self.lo!r}, {self.hi!r}]")

    @classmethod
    def from_pair(cls, pair) -> "HuWindow":
        """The window from its [lo, hi] form in config files and checkpoint metadata."""
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MetaParseError(f"hu_window must be a [lo, hi] pair, got {pair!r}")
        return cls(*pair)

    def to_pair(self) -> list:
        return [self.lo, self.hi]


def is_finite_number(value) -> bool:
    """A finite int or float; bools, strings and NaN are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _meta_to_dict(meta: VolumeMeta) -> dict:
    return {
        "patient_id": meta.patient_id,
        "height": meta.height,
        "width": meta.width,
        "num_slices": meta.num_slices,
        "spacing_mm": list(meta.spacing_mm),
        "dtype": "int16-le",
    }


def _read_meta(directory: Path) -> VolumeMeta:
    meta_path = directory / META_FILENAME
    if not meta_path.is_file():
        raise MissingFile(f"no {META_FILENAME} in {directory}")
    try:
        raw = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MetaParseError(f"{meta_path}: {exc}") from exc
    try:
        if raw.get("dtype", "int16-le") != "int16-le":
            raise MetaParseError(f"{meta_path}: unsupported dtype {raw['dtype']!r}")
        return VolumeMeta(
            height=int(raw["height"]),
            width=int(raw["width"]),
            num_slices=int(raw["num_slices"]),
            spacing_mm=tuple(float(s) for s in raw["spacing_mm"]),
            patient_id=str(raw["patient_id"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MetaParseError(f"{meta_path}: {exc!r}") from exc


def _write_meta(meta: VolumeMeta, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / META_FILENAME).write_text(
        json.dumps(_meta_to_dict(meta), indent=2) + "\n", encoding="utf-8"
    )


def load_volume(directory: str | Path) -> Volume:
    """Read meta.json + volume.raw from a patient directory."""
    directory = Path(directory)
    meta = _read_meta(directory)
    raw_path = directory / VOLUME_FILENAME
    if not raw_path.is_file():
        raise MissingFile(f"no {VOLUME_FILENAME} in {directory}")
    data = np.fromfile(raw_path, dtype="<i2")
    if data.size != meta.voxel_count:
        raise SizeMismatch(
            f"{raw_path}: {raw_path.stat().st_size} bytes, expected {2 * meta.voxel_count}"
        )
    return Volume(meta=meta, voxels=data.reshape(meta.shape))


def save_volume(volume: Volume, directory: str | Path) -> None:
    """Write meta.json + volume.raw (little-endian int16, z/y/x order)."""
    directory = Path(directory)
    _write_meta(volume.meta, directory)
    volume.voxels.astype("<i2").tofile(directory / VOLUME_FILENAME)


def load_mask(directory: str | Path) -> MaskVolume:
    """Read meta.json + mask.raw; any byte outside {0, 1} is an error."""
    directory = Path(directory)
    meta = _read_meta(directory)
    raw_path = directory / MASK_FILENAME
    if not raw_path.is_file():
        raise MissingFile(f"no {MASK_FILENAME} in {directory}")
    data = np.fromfile(raw_path, dtype=np.uint8)
    if data.size != meta.voxel_count:
        raise SizeMismatch(
            f"{raw_path}: {raw_path.stat().st_size} bytes, expected {meta.voxel_count}"
        )
    return MaskVolume(meta=meta, voxels=data.reshape(meta.shape))


def save_mask(mask: MaskVolume, directory: str | Path) -> None:
    """Write meta.json + mask.raw (one byte per voxel)."""
    directory = Path(directory)
    _write_meta(mask.meta, directory)
    mask.voxels.astype(np.uint8).tofile(directory / MASK_FILENAME)


def normalize_slice(hu_slice: np.ndarray, window: HuWindow) -> np.ndarray:
    """Map HU values through the window onto [0, 1], clamping outside it.

    out = clamp((v - lo) / (hi - lo), 0, 1), computed in float32.
    """
    v = np.asarray(hu_slice, dtype=np.float32)
    out = (v - np.float32(window.lo)) / np.float32(window.hi - window.lo)
    return np.clip(out, 0.0, 1.0)


def to_model_input(norm_slice: np.ndarray) -> np.ndarray:
    """Replicate a normalized H x W slice into the 3-channel model input.

    All three channels are identical copies; shape is (H, W, 3).
    """
    norm_slice = np.asarray(norm_slice, dtype=np.float32)
    if norm_slice.ndim != 2:
        raise SizeMismatch(f"expected an H x W slice, got shape {norm_slice.shape}")
    return np.repeat(norm_slice[:, :, None], 3, axis=2)
