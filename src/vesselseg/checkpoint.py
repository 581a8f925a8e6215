"""Binary checkpoints for the segmentation network.

Layout: magic "TONC" (4 bytes), little-endian u32 format version (1),
little-endian u64 header length, UTF-8 JSON header, then contiguous
float32 tensor data. The header records the architecture config, free-form
training metadata, and for each tensor its dtype, shape and byte offset
relative to the start of the data section. Offsets follow the canonical
manifest order, so save -> load is bit-identical. Saving replaces the file
atomically. Loading rejects byte ranges that are negative, out of bounds
or overlapping. A checkpoint always holds every tensor of the config's
manifest.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import BadMagic, ManifestMismatch, MissingFile, VersionMismatch
from .model import ModelConfig, ParamStore, param_manifest
from .model import init_params  # noqa: F401  perfbench patches it here

MAGIC = b"TONC"
VERSION = 1


@dataclass
class Checkpoint:
    """Config, parameters and training metadata, together restorable."""

    config: ModelConfig
    params: ParamStore
    meta: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Serialize the checkpoint's config, metadata and every tensor.

    The bytes go to a temporary file in the same directory, which is fsynced
    and then renamed over path, so a writer that fails part-way leaves any
    previous file at path as it was.
    """
    path = Path(path)
    store = ckpt.params
    tensors = {}
    offset = 0
    for name in store.names():
        shape = store.data(name).shape
        tensors[name] = {"dtype": "f32", "shape": list(shape), "offset": offset}
        offset += 4 * int(np.prod(shape))
    header = json.dumps(
        {"config": ckpt.config.to_dict(), "meta": ckpt.meta, "tensors": tensors}
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for name in store.names():
                fh.write(np.ascontiguousarray(store.data(name), dtype="<f4"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Restore a checkpoint, validating magic, version and the manifest.

    The tensors are writable views into one buffer that holds the data section.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise MissingFile(f"cannot open checkpoint {path}: {exc.strerror}") from exc
    with fh:
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:4] != MAGIC:
            raise BadMagic(f"{path} is not a checkpoint file")
        version, header_len = struct.unpack("<IQ", prefix[4:])
        if version != VERSION:
            raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
        if 16 + header_len > os.fstat(fh.fileno()).st_size:
            raise BadMagic(f"{path}: truncated header")
        header_raw = fh.read(header_len)
        data = np.fromfile(fh, dtype=np.uint8)  # the data section, in one aligned buffer
    try:
        header = json.loads(header_raw.decode("utf-8"))
        config_raw, tensor_specs, meta = header["config"], header["tensors"], header.get("meta", {})
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise BadMagic(f"{path}: unreadable header ({exc!r})") from exc
    if not isinstance(tensor_specs, dict) or not isinstance(meta, dict):
        raise BadMagic(f"{path}: the header's tensors and meta must be JSON objects")
    config = ModelConfig.from_dict(config_raw)

    manifest = {e.name: e for e in param_manifest(config)}
    got = set(tensor_specs)
    expected = set(manifest)
    if got != expected:
        raise ManifestMismatch(
            f"{path}: tensor names do not match the config manifest "
            f"(missing {sorted(expected - got)[:4]}, extra {sorted(got - expected)[:4]})"
        )

    store = ParamStore(config, {})
    spans = []  # (start, stop, name) byte range of each tensor in the data section
    for name, entry in manifest.items():
        spec = tensor_specs[name]
        if not isinstance(spec, dict) or spec.get("dtype") != "f32":
            raise ManifestMismatch(f"{path}: tensor {name} is not an f32 entry: {spec!r}")
        shape, start = spec.get("shape"), spec.get("offset")
        if not isinstance(shape, list) or any(type(s) is not int for s in shape):
            raise ManifestMismatch(f"{path}: tensor {name} has non-integer shape {shape!r}")
        if tuple(shape) != entry.shape:
            raise ManifestMismatch(f"{path}: tensor {name} has shape {tuple(shape)}, manifest wants {entry.shape}")
        count = int(np.prod(shape))
        if type(start) is not int or start < 0 or start + 4 * count > data.size:
            raise ManifestMismatch(
                f"{path}: tensor {name} at offset {start!r} lies outside the {data.size}-byte data section"
            )
        spans.append((start, start + 4 * count, name))
        values = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        store.tensors[name] = Tensor(values.reshape(entry.shape), requires_grad=entry.trainable)
    spans.sort()
    for (_, stop, first), (start, _, second) in zip(spans, spans[1:]):
        if start < stop:
            raise ManifestMismatch(f"{path}: tensors {first} and {second} overlap in the data section")
    return Checkpoint(config=config, params=store, meta=meta)
