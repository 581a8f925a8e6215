"""On-disk volume format, loading and saving, HU normalization, and the
dict form (DictConfig) shared by meta.json and the package's configs.

A "patient directory" holds three files:

    meta.json    {"height": int, "width": int, "num_slices": int,
                  "spacing_mm": [x, y, z], "patient_id": str,
                  "dtype": "int16-le"}
    volume.raw   little-endian int16, slice-major (z, then row y, then
                 column x), no header
    mask.raw     one unsigned byte per voxel in {0, 1}, same ordering

meta.json is VolumeMeta.to_dict() plus "dtype" and reads back through
VolumeMeta.from_dict: exactly these keys, each of its JSON type (32.9 and
true are no integers), or MetaParseError names the file and the field.
Volume and MaskVolume share one load path and one save path.

Volumes carry signed 16-bit Hounsfield units. Slices are normalized into
[0, 1] with a configurable HU window before entering the model; the model
input is the normalized slice replicated to three channels.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from .errors import InvalidLabel, MetaParseError, MissingFile, OutputNotWritable, SizeMismatch

META_FILENAME = "meta.json"
VOLUME_FILENAME = "volume.raw"
MASK_FILENAME = "mask.raw"
RAW_DTYPE = "int16-le"  # the "dtype" meta.json declares for volume.raw

# Spans soft tissue through contrast-enhanced lumen and calcification.
DEFAULT_HU_WINDOW = (-100.0, 900.0)


def is_finite_number(value) -> bool:
    """A finite int or float; bools, strings and NaN are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def is_int(value) -> bool:
    """A Python or numpy integer; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


# What each annotated field type accepts, as an error message names it.
_FIELD_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", is_finite_number),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    tuple[int, ...]: ("a list of integers", lambda v: type(v) is tuple and all(type(i) is int for i in v)),
    tuple[float, float, float]: (
        "a list of 3 finite numbers",
        lambda v: type(v) is tuple and len(v) == 3 and all(is_finite_number(s) for s in v),
    ),
    HuWindow: ("a [lo, hi] pair", lambda v: isinstance(v, HuWindow)),
}


class DictConfig:
    """A config dataclass whose JSON dict form is derived from its fields: every
    field in declaration order, tuples as lists, an HuWindow as [lo, hi]. A
    subclass sets _error, the VesselSegError a malformed value raises, and
    calls _check_types() first in __post_init__."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw) -> "DictConfig":
        """The config from exactly the keys to_dict writes."""
        kinds = get_type_hints(cls)  # field name -> annotated type, in declaration order
        if not isinstance(raw, dict):
            raise cls._error(f"{cls.__name__} must be a JSON object, got {raw!r}")
        unknown, missing = sorted(set(raw) - set(kinds)), sorted(set(kinds) - set(raw))
        if unknown or missing:
            raise cls._error(f"{cls.__name__}: unknown keys {unknown}, missing keys {missing}")
        return cls(**{n: _typed(kind, raw[n]) for n, kind in kinds.items()})

    def _check_types(self) -> None:
        for name, kind in get_type_hints(type(self)).items():
            what, accepts = _FIELD_KINDS[kind]
            if not accepts(getattr(self, name)):
                raise self._error(f"{name} must be {what}, got {getattr(self, name)!r}")


def _plain(value):
    return value.to_pair() if isinstance(value, HuWindow) else list(value) if isinstance(value, tuple) else value


def _typed(kind, value):
    if kind is HuWindow:
        return HuWindow.from_pair(value)
    return tuple(value) if get_origin(kind) is tuple and isinstance(value, list) else value


@dataclass(frozen=True)
class VolumeMeta(DictConfig):
    """Dimensions, voxel spacing and identity of one patient stack."""

    height: int
    width: int
    num_slices: int
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    patient_id: str = ""

    _error = MetaParseError

    def __post_init__(self):
        self._check_types()
        if self.height < 1 or self.width < 1 or self.num_slices < 1:
            raise MetaParseError(f"dimensions must be >= 1, got {self.num_slices}x{self.height}x{self.width}")
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
class _Stack:
    """Voxels in (z, y, x) order with their meta; a subclass names its element
    dtype (also its on-disk encoding) and its raw file in a patient directory."""

    meta: VolumeMeta
    voxels: np.ndarray

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=self._dtype)
        if self.voxels.shape != self.meta.shape:
            raise SizeMismatch(f"{type(self).__name__} shape {self.voxels.shape} does not match meta {self.meta.shape}")


class Volume(_Stack):
    """A CTA stack: int16 HU voxels in (z, y, x) order."""

    _dtype = np.dtype("<i2")
    _filename = VOLUME_FILENAME


class MaskVolume(_Stack):
    """A binary annotation stack aligned with a Volume, as uint8 voxels in {0, 1}.

    A bool array holds only 0 and 1 by type, so it is stored as its uint8
    view: no copy and no value scan. Any other array is converted to uint8
    and every voxel is checked; one outside {0, 1} raises InvalidLabel.
    """

    _dtype = np.dtype(np.uint8)
    _filename = MASK_FILENAME

    def __post_init__(self):
        is_bool = isinstance(self.voxels, np.ndarray) and self.voxels.dtype == bool
        if is_bool:
            self.voxels = self.voxels.view(np.uint8)
        super().__post_init__()
        if not is_bool and self.voxels.max(initial=0) > 1:
            bad = np.count_nonzero(self.voxels > 1)
            raise InvalidLabel(f"{bad} mask voxels are neither 0 nor 1")


def _read_meta(directory: Path) -> VolumeMeta:
    meta_path = directory / META_FILENAME
    if not meta_path.is_file():
        raise MissingFile(f"no {META_FILENAME} in {directory}")
    try:
        raw = json.loads(meta_path.read_text(encoding="utf-8"))
        if isinstance(raw, dict) and raw.pop("dtype", None) != RAW_DTYPE:
            raise MetaParseError(f"dtype must be {RAW_DTYPE!r}")
        return VolumeMeta.from_dict(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, MetaParseError) as exc:
        raise MetaParseError(f"{meta_path}: {exc}") from exc


def _load(cls: type[_Stack], directory: str | Path) -> _Stack:
    directory = Path(directory)
    meta = _read_meta(directory)
    raw_path = directory / cls._filename
    if not raw_path.is_file():
        raise MissingFile(f"no {cls._filename} in {directory}")
    size, expected = raw_path.stat().st_size, cls._dtype.itemsize * meta.voxel_count
    if size != expected:  # by bytes: np.fromfile drops a trailing partial element
        raise SizeMismatch(f"{raw_path}: {size} bytes, expected {expected}")
    return cls(meta=meta, voxels=np.fromfile(raw_path, dtype=cls._dtype).reshape(meta.shape))


def make_output_dir(directory: str | Path) -> Path:
    """Create directory and its parents; OutputNotWritable names it when that fails."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputNotWritable(f"cannot create output directory {directory}: {exc.strerror}") from exc
    return directory


def check_output_dirs(*directories: str | Path | None) -> None:
    """Raise OutputNotWritable unless the nearest existing path on the way to
    each directory that is not None is a directory this process can write.
    Creates nothing, so a run that a later check rejects leaves no directory."""
    for directory in filter(None, directories):
        path = Path(directory).absolute()
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
            raise OutputNotWritable(
                f"cannot create output directory {directory}: {existing} is not a writable directory"
            )


def _save(stack: _Stack, directory: str | Path) -> None:
    directory = make_output_dir(directory)
    meta = {**stack.meta.to_dict(), "dtype": RAW_DTYPE}
    (directory / META_FILENAME).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    stack.voxels.astype(stack._dtype).tofile(directory / stack._filename)


def load_volume(directory: str | Path) -> Volume:
    """Read meta.json + volume.raw from a patient directory."""
    return _load(Volume, directory)


def save_volume(volume: Volume, directory: str | Path) -> None:
    """Write meta.json + volume.raw (little-endian int16, z/y/x order)."""
    _save(volume, directory)


def load_mask(directory: str | Path) -> MaskVolume:
    """Read meta.json + mask.raw; any byte outside {0, 1} is an error."""
    return _load(MaskVolume, directory)


def save_mask(mask: MaskVolume, directory: str | Path) -> None:
    """Write meta.json + mask.raw (one byte per voxel)."""
    _save(mask, directory)


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
