"""Synthetic CTA phantoms with analytically known vessel masks.

Each phantom is a bifurcating tube: a wide trunk descending from slice 0
that splits into two thin branches diverging along x. Optional extras
reproduce the two behaviours that break intensity tracking:

  * an occluded segment, where lumen intensity collapses to near
    background while the ground truth still labels the vessel, and
  * bone decoys, bright cylinders that are never part of the mask.

Geometry is hard-edged (a voxel is inside a tube iff its center is
strictly within the section radius), so a brute-force point-in-circle
test reproduces the mask exactly. Noise is additive Gaussian drawn from
numpy's PCG64 generator in C (z, y, x) order, one slice at a time (the
generator streams the same values in chunks as in one draw), so identical
specs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import MissingFile, OutOfRange, SpecInvalid
from .volume_io import MaskVolume, Volume, VolumeMeta, is_finite_number, is_int, make_output_dir

MASK_TO_BIFURCATION = "to_bifurcation"
MASK_TO_END = "to_end"

DEFAULT_INTENSITIES = {
    "background": 40.0,
    "lumen": 350.0,
    "occluded_lumen": 45.0,
    "bone": 900.0,
}


@dataclass(frozen=True)
class BoneDecoy:
    """A bright cylinder present over [z0, z1); never masked."""

    center_xy: tuple[float, float]
    radius_px: float
    contact_z_range: tuple[int, int]


@dataclass
class PhantomSpec:
    """Deterministic recipe for one synthetic patient volume."""

    dims: tuple[int, int, int] = (64, 64, 64)  # (num_slices, height, width)
    seed: int = 0
    entry_xy: tuple[float, float] | None = None  # defaults to slice center
    trunk_radius_px: float = 10.0
    branch_radius_px: float = 3.0
    bifurcation_z: int | None = None  # defaults to num_slices // 2
    branch_half_angle_deg: float = 15.0
    occlusion_z_range: tuple[int, int] | None = None  # [z0, z1)
    bone_decoys: list[BoneDecoy] = field(default_factory=list)
    intensities: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_INTENSITIES))
    noise_sigma: float = 15.0
    mask_extent: str = MASK_TO_END
    patient_id: str = "phantom"

    def __post_init__(self):
        self._check_dims()  # the defaults below are read off dims
        if self.entry_xy is None:
            self.entry_xy = (self.dims[2] / 2.0, self.dims[1] / 2.0)
        if self.bifurcation_z is None:
            self.bifurcation_z = self.dims[0] // 2
        self.validate()

    def _check_dims(self) -> None:
        dims = self.dims
        if not (isinstance(dims, (tuple, list)) and len(dims) == 3 and all(type(n) is int and n >= 1 for n in dims)):
            raise SpecInvalid(f"dims must be three ints >= 1, got {dims!r}")

    def validate(self) -> None:
        self._check_dims()
        nz = self.dims[0]
        if not (type(self.seed) is int and self.seed >= 0):
            raise SpecInvalid(f"seed must be an int >= 0, got {self.seed!r}")
        if not (is_int(self.bifurcation_z) and 0 <= self.bifurcation_z < nz):
            raise SpecInvalid(f"bifurcation_z must be an int in [0, {nz}), got {self.bifurcation_z!r}")
        for name in ("trunk_radius_px", "branch_radius_px", "noise_sigma"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0):
                raise SpecInvalid(f"{name} must be a finite number >= 0, got {value!r}")
        if not is_finite_number(self.branch_half_angle_deg):
            raise SpecInvalid(f"branch_half_angle_deg must be finite, got {self.branch_half_angle_deg!r}")
        xy = self.entry_xy
        if not (isinstance(xy, (tuple, list)) and len(xy) == 2 and all(map(is_finite_number, xy))):
            raise SpecInvalid(f"entry_xy must be two finite numbers, got {xy!r}")
        if self.occlusion_z_range is not None:
            _check_z_range("occlusion range", self.occlusion_z_range, nz)
        for decoy in self.bone_decoys:
            _check_z_range("bone decoy z range", decoy.contact_z_range, nz)
            center = decoy.center_xy
            two_numbers = isinstance(center, (tuple, list)) and len(center) == 2
            if not (two_numbers and all(map(is_finite_number, (*center, decoy.radius_px)))):
                raise SpecInvalid(f"bone decoy center {center!r} and radius {decoy.radius_px!r} must be finite numbers")
            if decoy.radius_px <= 0:
                raise SpecInvalid("bone decoy radius must be > 0")
        if self.mask_extent not in (MASK_TO_BIFURCATION, MASK_TO_END):
            raise SpecInvalid(f"unknown mask_extent {self.mask_extent!r}")
        if not isinstance(self.patient_id, str):
            raise SpecInvalid(f"patient_id must be a string, got {self.patient_id!r}")
        missing = set(DEFAULT_INTENSITIES) - set(self.intensities)
        if missing:
            raise SpecInvalid(f"intensities missing keys {sorted(missing)}")
        if not all(is_finite_number(self.intensities[k]) for k in DEFAULT_INTENSITIES):
            raise SpecInvalid(f"intensities must be finite numbers, got {self.intensities!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PhantomSpec":
        """The spec from its to_json text; SpecInvalid if the text is not one.

        JSON lists become tuples and no other value is converted: dims is
        required, each bone decoy takes exactly BoneDecoy's three keys, and
        validate() checks every type.
        """

        def tuples(obj) -> dict:  # a JSON object with its list values as tuples
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {obj!r}")
            return {key: tuple(value) if isinstance(value, list) else value for key, value in obj.items()}

        try:
            raw = tuples(json.loads(text))
            decoys = [BoneDecoy(**tuples(d)) for d in raw.pop("bone_decoys", ())]
            return cls(dims=raw.pop("dims"), bone_decoys=decoys, **raw)
        except (ValueError, KeyError, TypeError) as exc:  # json's decode errors are ValueErrors
            raise SpecInvalid(f"not a phantom spec: {exc!r}") from exc


def _check_z_range(name: str, z_range, nz: int) -> None:
    """SpecInvalid unless z_range is two ints 0 <= z0 <= z1 <= nz (slices [z0, z1))."""
    two_ints = isinstance(z_range, (tuple, list)) and len(z_range) == 2 and all(map(is_int, z_range))
    if not (two_ints and 0 <= z_range[0] <= z_range[1] <= nz):
        raise SpecInvalid(f"{name} must be two ints 0 <= z0 <= z1 <= {nz}, got {z_range!r}")


def centerline_at(spec: PhantomSpec, z: int) -> list[tuple[float, float, float]]:
    """Tube cross-sections (x, y, radius) on slice z.

    One trunk section below the bifurcation; two branch sections at
    entry_xy +- (tan(half_angle) * (z - bifurcation_z), 0) from the
    bifurcation slice on.
    """
    nz = spec.dims[0]
    if not 0 <= z < nz:
        raise OutOfRange(f"slice {z} outside [0, {nz})")
    ex, ey = spec.entry_xy
    if z < spec.bifurcation_z:
        return [(ex, ey, spec.trunk_radius_px)]
    offset = np.tan(np.deg2rad(spec.branch_half_angle_deg)) * (z - spec.bifurcation_z)
    return [
        (ex - offset, ey, spec.branch_radius_px),
        (ex + offset, ey, spec.branch_radius_px),
    ]


def _disk(cx: float, cy: float, r2: float, ny: int, nx: int):
    """(y0, x0, inside): the voxel centers of an ny x nx slice strictly inside
    the circle (x - cx)^2 + (y - cy)^2 < r2, as a bool map of the circle's
    bounding box (clipped to the slice) whose top-left voxel is (y0, x0);
    None if that box misses the slice. Each voxel's test is the float64
    expression a whole-slice grid evaluates."""
    r = np.sqrt(r2)
    pad = 1.0 + r * 1e-12  # float64 rounding moves the circle's edge by far less
    y0, y1 = np.clip([np.floor(cy - r - pad), np.ceil(cy + r + pad) + 1], 0, ny).astype(int)
    x0, x1 = np.clip([np.floor(cx - r - pad), np.ceil(cx + r + pad) + 1], 0, nx).astype(int)
    if y0 >= y1 or x0 >= x1:
        return None
    xx = np.arange(x0, x1, dtype=np.float64)[None, :]
    yy = np.arange(y0, y1, dtype=np.float64)[:, None]
    return y0, x0, (xx - cx) ** 2 + (yy - cy) ** 2 < r2


def _paint(plane: np.ndarray, disk, value) -> None:
    """Set the voxels of a _disk result in plane (an ny x nx slice) to value."""
    if disk is not None:
        y0, x0, inside = disk
        plane[y0 : y0 + inside.shape[0], x0 : x0 + inside.shape[1]][inside] = value


def generate(spec: PhantomSpec) -> tuple[Volume, MaskVolume]:
    """Render the phantom volume and its ground-truth vessel mask.

    HU priority per voxel: bone decoy > vessel lumen (occluded lumen
    inside the occlusion range) > background, plus Gaussian noise. The
    mask marks vessel voxels only, occluded segments included, limited
    by mask_extent; bone is never masked. Each disk is tested inside its
    bounding box only, and noise, rounding and the int16 cast go one slice
    at a time, so no float64 array is the size of the volume.
    """
    spec.validate()
    nz, ny, nx = spec.dims
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    info = np.iinfo(np.int16)
    voxels = np.empty((nz, ny, nx), dtype=np.int16)
    mask = np.zeros((nz, ny, nx), dtype=bool)
    base = np.empty((ny, nx), dtype=np.float64)
    occ = spec.occlusion_z_range

    for z in range(nz):
        base.fill(spec.intensities["background"])
        occluded = occ is not None and occ[0] <= z < occ[1]
        lumen = spec.intensities["occluded_lumen"] if occluded else spec.intensities["lumen"]
        masked = spec.mask_extent == MASK_TO_END or z < spec.bifurcation_z
        for cx, cy, r in centerline_at(spec, z):
            disk = _disk(cx, cy, r * r, ny, nx)
            _paint(base, disk, lumen)
            if masked:
                _paint(mask[z], disk, True)
        for decoy in spec.bone_decoys:
            z0, z1 = decoy.contact_z_range
            if z0 <= z < z1:
                bx, by = decoy.center_xy
                _paint(base, _disk(bx, by, decoy.radius_px**2, ny, nx), spec.intensities["bone"])
        noisy = rng.normal(0.0, spec.noise_sigma, size=(ny, nx))
        noisy += base
        voxels[z] = np.clip(np.rint(noisy, out=noisy), info.min, info.max, out=noisy)

    meta = VolumeMeta(
        height=ny, width=nx, num_slices=nz, spacing_mm=(1.0, 1.0, 1.0), patient_id=spec.patient_id
    )
    return Volume(meta=meta, voxels=voxels), MaskVolume(meta=meta, voxels=mask)


def save_spec(spec: PhantomSpec, directory: str | Path) -> None:
    """Drop the generating recipe next to the rendered volume."""
    (make_output_dir(directory) / "phantom.json").write_text(spec.to_json() + "\n", encoding="utf-8")


def load_spec(directory: str | Path) -> PhantomSpec:
    path = Path(directory) / "phantom.json"
    if not path.is_file():
        raise MissingFile(f"no phantom.json in {directory}")
    try:
        return PhantomSpec.from_json(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, SpecInvalid) as exc:
        raise SpecInvalid(f"{path}: {exc}") from exc
