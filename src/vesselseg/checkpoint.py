"""Binary checkpoints for the segmentation network.

Layout: magic "TONC" (4 bytes), little-endian u32 format version (1),
little-endian u64 header length, UTF-8 JSON header, then contiguous
float32 tensor data. The header records the architecture config, free-form
training metadata, and for each tensor its dtype, shape and byte offset
relative to the start of the data section. Offsets follow the canonical
manifest order, so save -> load is bit-identical. Loading rejects byte
ranges that are negative, out of bounds or overlapping.

A checkpoint holding only encoder.* tensors may be loaded with
encoder_only=True, in which case every other tensor is freshly
initialized; this is the hook for pretrained-encoder weights.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import BadMagic, ManifestMismatch, VersionMismatch
from .model import ModelConfig, ParamStore, init_params, param_manifest

MAGIC = b"TONC"
VERSION = 1


@dataclass
class Checkpoint:
    """Config, parameters and training metadata, together restorable."""

    config: ModelConfig
    params: ParamStore
    meta: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path: str | Path, names: list[str] | None = None) -> None:
    """Serialize the checkpoint; names limits the tensor subset (e.g. encoder.*)."""
    path = Path(path)
    store = ckpt.params
    selected = names if names is not None else store.names()
    tensors = {}
    blobs = []
    offset = 0
    for name in selected:
        data = store.data(name).astype("<f4")
        blob = data.tobytes()
        tensors[name] = {"dtype": "f32", "shape": list(data.shape), "offset": offset}
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"config": ckpt.config.to_dict(), "meta": ckpt.meta, "tensors": tensors}
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path, encoder_only: bool = False, init_seed: int = 0) -> Checkpoint:
    """Restore a checkpoint, validating magic, version and the manifest."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise BadMagic(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if 16 + header_len > len(raw):
        raise BadMagic(f"{path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        tensor_specs = header["tensors"]
        meta = header.get("meta", {})
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise BadMagic(f"{path}: unreadable header ({exc!r})") from exc

    manifest = {e.name: e for e in param_manifest(config)}
    got = set(tensor_specs)
    expected = set(manifest)
    if got != expected:
        encoder_names = {n for n in expected if n.startswith("encoder.")}
        if not (encoder_only and got == encoder_names):
            raise ManifestMismatch(
                f"{path}: tensor names do not match the config manifest "
                f"(missing {sorted(expected - got)[:4]}, extra {sorted(got - expected)[:4]}; "
                f"encoder_only={encoder_only})"
            )

    data = raw[16 + header_len :]
    spans = []  # (start, stop, name) byte range of each tensor in the data section
    for name, spec in tensor_specs.items():
        if not isinstance(spec, dict) or spec.get("dtype") != "f32":
            raise ManifestMismatch(f"{path}: tensor {name} is not an f32 entry: {spec!r}")
        shape, start = spec.get("shape"), spec.get("offset")
        if not isinstance(shape, list) or any(type(s) is not int for s in shape):
            raise ManifestMismatch(f"{path}: tensor {name} has non-integer shape {shape!r}")
        if tuple(shape) != manifest[name].shape:
            raise ManifestMismatch(
                f"{path}: tensor {name} has shape {tuple(shape)}, manifest wants {manifest[name].shape}"
            )
        nbytes = 4 * int(np.prod(shape))
        if type(start) is not int or start < 0 or start + nbytes > len(data):
            raise ManifestMismatch(
                f"{path}: tensor {name} at offset {start!r} lies outside the {len(data)}-byte data section"
            )
        spans.append((start, start + nbytes, name))
    spans.sort()
    for (_, stop, first), (start, _, second) in zip(spans, spans[1:]):
        if start < stop:
            raise ManifestMismatch(f"{path}: tensors {first} and {second} overlap in the data section")

    store = init_params(config, init_seed)
    for start, stop, name in spans:
        values = np.frombuffer(data[start:stop], dtype="<f4").reshape(manifest[name].shape).copy()
        store.tensors[name] = Tensor(values, requires_grad=manifest[name].trainable)
    store.validate_manifest()
    return Checkpoint(config=config, params=store, meta=meta)
