"""The segmentation network: residual encoder, attention bridge, decoder.

The encoder is a ResNet-34-style stack (7x7 stem, then 3/4/6/3 basic
blocks) from which four skip maps are tapped at H/2, H/4, H/8 and H/16.
Its H/32 output is flattened to tokens, linearly projected, given learned
positional embeddings, run through pre-norm transformer layers, projected
back and re-assembled into a feature map (layer norm + 3x3 conv + ReLU).
With bridge_layers = 0 the bridge is skipped entirely, which degrades the
network to a plain residual U-Net. The decoder upsamples 2x four times,
concatenating one skip per block and applying a single conv-BN-ReLU; a
final 2x upsample and 1x1 sigmoid conv produce the full-resolution
probability map.

Parameters live in a ParamStore: a flat, canonically ordered mapping from
tensor name to autodiff Tensor whose names and shapes are fixed by the
ModelConfig. Batch-norm running statistics are stored as non-trainable
entries of the same store; a tensor's requires_grad is its trainable flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionMismatch, NonFiniteActivation, ShapeMismatch
from .losses import binarize, config_digest
from .volume_io import HuWindow, MaskVolume, Volume, normalize_slice, to_model_input

BASE_ENCODER_WIDTHS = (64, 64, 128, 256, 512)
BASE_DECODER_WIDTHS = (256, 128, 64, 32)
ENCODER_BLOCK_COUNTS = (3, 4, 6, 3)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; spatial sizes must divide by 32."""

    input_hw: int = 512
    in_channels: int = 3
    encoder_widths: tuple[int, ...] = BASE_ENCODER_WIDTHS
    encoder_block_counts: tuple[int, ...] = ENCODER_BLOCK_COUNTS
    bridge_layers: int = 4
    d_model: int = 512
    num_heads: int = 8
    mlp_ratio: int = 2
    decoder_widths: tuple[int, ...] = BASE_DECODER_WIDTHS
    out_channels: int = 1

    def __post_init__(self):
        if self.input_hw % 32 != 0 or self.input_hw < 32:
            raise ShapeMismatch(f"input_hw must be a positive multiple of 32, got {self.input_hw}")
        if self.in_channels != 3:
            raise ShapeMismatch(f"model input is fixed at 3 channels, got {self.in_channels}")
        if self.d_model % self.num_heads != 0:
            raise ShapeMismatch(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if len(self.encoder_widths) != 5 or len(self.encoder_block_counts) != 4:
            raise ShapeMismatch("encoder needs 5 widths and 4 block counts")
        if len(self.decoder_widths) != 4:
            raise ShapeMismatch("decoder needs exactly 4 widths")
        if self.out_channels != 1:
            raise ShapeMismatch("single-channel probability output only")

    @property
    def token_grid(self) -> int:
        return self.input_hw // 32

    @property
    def n_tokens(self) -> int:
        return self.token_grid * self.token_grid

    def to_dict(self) -> dict:
        return {
            "input_hw": self.input_hw,
            "in_channels": self.in_channels,
            "encoder_widths": list(self.encoder_widths),
            "encoder_block_counts": list(self.encoder_block_counts),
            "bridge_layers": self.bridge_layers,
            "d_model": self.d_model,
            "num_heads": self.num_heads,
            "mlp_ratio": self.mlp_ratio,
            "decoder_widths": list(self.decoder_widths),
            "out_channels": self.out_channels,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        return cls(
            input_hw=int(raw["input_hw"]),
            in_channels=int(raw["in_channels"]),
            encoder_widths=tuple(raw["encoder_widths"]),
            encoder_block_counts=tuple(raw["encoder_block_counts"]),
            bridge_layers=int(raw["bridge_layers"]),
            d_model=int(raw["d_model"]),
            num_heads=int(raw["num_heads"]),
            mlp_ratio=int(raw["mlp_ratio"]),
            decoder_widths=tuple(raw["decoder_widths"]),
            out_channels=int(raw["out_channels"]),
        )

    def digest(self) -> str:
        return config_digest(self.to_dict())


def scaled_config(
    input_hw: int,
    width_divisor: int = 1,
    bridge_layers: int = 4,
    d_model: int | None = None,
    num_heads: int = 8,
    mlp_ratio: int = 2,
) -> ModelConfig:
    """Shrink every width by a common divisor (for desk-scale runs)."""
    return ModelConfig(
        input_hw=input_hw,
        encoder_widths=tuple(max(1, w // width_divisor) for w in BASE_ENCODER_WIDTHS),
        bridge_layers=bridge_layers,
        d_model=d_model if d_model is not None else max(num_heads, 512 // width_divisor),
        num_heads=num_heads,
        mlp_ratio=mlp_ratio,
        decoder_widths=tuple(max(1, w // width_divisor) for w in BASE_DECODER_WIDTHS),
    )


def tiny_config() -> ModelConfig:
    """Smallest double-precision-friendly config used for gradient checks."""
    return scaled_config(input_hw=32, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)


class ParamEntry(NamedTuple):
    name: str
    shape: tuple[int, ...]
    init: str  # kaiming | normal002 | zeros | ones
    trainable: bool


def _bn_entries(prefix: str, channels: int) -> list[ParamEntry]:
    return [
        ParamEntry(f"{prefix}.gamma", (channels,), "ones", True),
        ParamEntry(f"{prefix}.beta", (channels,), "zeros", True),
        ParamEntry(f"{prefix}.running_mean", (channels,), "zeros", False),
        ParamEntry(f"{prefix}.running_var", (channels,), "ones", False),
    ]


def _ln_entries(prefix: str, dim: int) -> list[ParamEntry]:
    return [
        ParamEntry(f"{prefix}.gamma", (dim,), "ones", True),
        ParamEntry(f"{prefix}.beta", (dim,), "zeros", True),
    ]


def param_manifest(cfg: ModelConfig) -> list[ParamEntry]:
    """Canonical (name, shape, init, trainable) list derived from the config.

    A ParamStore is valid iff it holds exactly these names with exactly
    these shapes. With bridge_layers = 0 no bridge entries exist.
    """
    w = cfg.encoder_widths
    entries: list[ParamEntry] = []

    entries.append(ParamEntry("encoder.stem.conv.weight", (w[0], cfg.in_channels, 7, 7), "kaiming", True))
    entries.extend(_bn_entries("encoder.stem.bn", w[0]))

    in_c = w[0]
    for li, (blocks, width) in enumerate(zip(cfg.encoder_block_counts, w[1:]), start=1):
        stage_stride = 1 if li == 1 else 2
        for bi in range(blocks):
            p = f"encoder.layer{li}.block{bi}"
            b_in = in_c if bi == 0 else width
            b_stride = stage_stride if bi == 0 else 1
            entries.append(ParamEntry(f"{p}.conv1.weight", (width, b_in, 3, 3), "kaiming", True))
            entries.extend(_bn_entries(f"{p}.bn1", width))
            entries.append(ParamEntry(f"{p}.conv2.weight", (width, width, 3, 3), "kaiming", True))
            entries.extend(_bn_entries(f"{p}.bn2", width))
            if b_stride != 1 or b_in != width:
                entries.append(
                    ParamEntry(f"{p}.downsample.conv.weight", (width, b_in, 1, 1), "kaiming", True)
                )
                entries.extend(_bn_entries(f"{p}.downsample.bn", width))
        in_c = width

    if cfg.bridge_layers > 0:
        c_b, d = w[-1], cfg.d_model
        entries.append(ParamEntry("bridge.in_proj.weight", (d, c_b), "normal002", True))
        entries.append(ParamEntry("bridge.in_proj.bias", (d,), "zeros", True))
        entries.append(ParamEntry("bridge.pos_embed", (1, cfg.n_tokens, d), "zeros", True))
        for i in range(cfg.bridge_layers):
            p = f"bridge.layer{i}"
            entries.extend(_ln_entries(f"{p}.ln1", d))
            for proj in ("q", "k", "v", "out"):
                entries.append(ParamEntry(f"{p}.attn.{proj}.weight", (d, d), "normal002", True))
                entries.append(ParamEntry(f"{p}.attn.{proj}.bias", (d,), "zeros", True))
            entries.extend(_ln_entries(f"{p}.ln2", d))
            hidden = cfg.mlp_ratio * d
            entries.append(ParamEntry(f"{p}.mlp.fc1.weight", (hidden, d), "normal002", True))
            entries.append(ParamEntry(f"{p}.mlp.fc1.bias", (hidden,), "zeros", True))
            entries.append(ParamEntry(f"{p}.mlp.fc2.weight", (d, hidden), "normal002", True))
            entries.append(ParamEntry(f"{p}.mlp.fc2.bias", (d,), "zeros", True))
        entries.extend(_ln_entries("bridge.final_ln", d))
        entries.append(ParamEntry("bridge.out_proj.weight", (c_b, d), "normal002", True))
        entries.append(ParamEntry("bridge.out_proj.bias", (c_b,), "zeros", True))
        entries.extend(_ln_entries("bridge.post_ln", c_b))
        entries.append(ParamEntry("bridge.conv.weight", (c_b, c_b, 3, 3), "kaiming", True))
        entries.append(ParamEntry("bridge.conv.bias", (c_b,), "zeros", True))

    skip_c = (w[4], w[3], w[2], w[1], w[0])  # incoming, then S4..S1
    ch = skip_c[0]
    for i, out_c in enumerate(cfg.decoder_widths):
        p = f"decoder.block{i}"
        entries.append(ParamEntry(f"{p}.conv.weight", (out_c, ch + skip_c[i + 1], 3, 3), "kaiming", True))
        entries.extend(_bn_entries(f"{p}.bn", out_c))
        ch = out_c

    entries.append(ParamEntry("head.conv.weight", (cfg.out_channels, ch, 1, 1), "kaiming", True))
    entries.append(ParamEntry("head.conv.bias", (cfg.out_channels,), "zeros", True))
    return entries


@dataclass
class ParamStore:
    """Named parameter tensors bound to the config that shaped them."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def data(self, name: str) -> np.ndarray:
        return self.tensors[name].data

    def names(self) -> list[str]:
        return list(self.tensors)

    def trainable_names(self) -> list[str]:
        """Names whose tensors require grad, in canonical order."""
        return [n for n, t in self.tensors.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "ParamStore":
        out = {n: Tensor(t.data.copy(), requires_grad=t.requires_grad) for n, t in self.tensors.items()}
        return ParamStore(self.config, out)

    def validate_manifest(self) -> None:
        manifest = param_manifest(self.config)
        expected = {e.name: e.shape for e in manifest}
        got = {n: tuple(t.data.shape) for n, t in self.tensors.items()}
        if expected != got:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(
                n for n in set(expected) & set(got) if expected[n] != got[n]
            )
            raise ShapeMismatch(
                f"parameter store does not match manifest "
                f"(missing {missing[:4]}, extra {extra[:4]}, reshaped {wrong[:4]})"
            )


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParamStore:
    """Fresh parameters: Kaiming-uniform convolutions, normal(0, 0.02)
    bridge projections, unit/zero norm affines, zero positional embeddings.

    Draws come from one PCG64 stream in manifest order, so a seed pins
    every tensor bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for entry in param_manifest(cfg):
        if entry.init == "kaiming":
            fan_in = int(np.prod(entry.shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            data = rng.uniform(-bound, bound, size=entry.shape)
        elif entry.init == "normal002":
            data = rng.normal(0.0, 0.02, size=entry.shape)
        elif entry.init == "zeros":
            data = np.zeros(entry.shape)
        elif entry.init == "ones":
            data = np.ones(entry.shape)
        else:
            raise ValueError(f"unknown init {entry.init!r}")
        tensors[entry.name] = Tensor(data.astype(dtype), requires_grad=entry.trainable)
    return ParamStore(cfg, tensors)


# -- forward passes ---------------------------------------------------------


def _bn(x: Tensor, ps: ParamStore, prefix: str, training: bool) -> Tensor:
    return ad.batch_norm(
        x,
        ps[f"{prefix}.gamma"],
        ps[f"{prefix}.beta"],
        ps.data(f"{prefix}.running_mean"),
        ps.data(f"{prefix}.running_var"),
        training=training,
    )


def residual_block(x: Tensor, ps: ParamStore, prefix: str, stride: int, training: bool) -> Tensor:
    """conv3x3(stride)-BN-ReLU-conv3x3-BN plus (projected) shortcut, ReLU."""
    y = ad.conv2d(x, ps[f"{prefix}.conv1.weight"], stride=stride, padding=1)
    y = ad.relu(_bn(y, ps, f"{prefix}.bn1", training))
    y = ad.conv2d(y, ps[f"{prefix}.conv2.weight"], stride=1, padding=1)
    y = _bn(y, ps, f"{prefix}.bn2", training)
    if f"{prefix}.downsample.conv.weight" in ps:
        shortcut = ad.conv2d(x, ps[f"{prefix}.downsample.conv.weight"], stride=stride, padding=0)
        shortcut = _bn(shortcut, ps, f"{prefix}.downsample.bn", training)
    else:
        shortcut = x
    return ad.relu(y + shortcut)


def encoder_forward(
    x: Tensor, ps: ParamStore, training: bool
) -> tuple[Tensor, list[Tensor]]:
    """Run the residual encoder; returns (H/32 map, [S1, S2, S3, S4] skips)."""
    cfg = ps.config
    y = ad.conv2d(x, ps["encoder.stem.conv.weight"], stride=2, padding=3)
    s1 = ad.relu(_bn(y, ps, "encoder.stem.bn", training))
    y = ad.max_pool2d(s1, kernel=3, stride=2, padding=1)
    skips = [s1]
    for li, blocks in enumerate(cfg.encoder_block_counts, start=1):
        for bi in range(blocks):
            stride = 2 if (bi == 0 and li > 1) else 1
            y = residual_block(y, ps, f"encoder.layer{li}.block{bi}", stride, training)
        if li < 4:
            skips.append(y)
    return y, skips


def multi_head_attention(x: Tensor, params: dict[str, Tensor], num_heads: int) -> Tensor:
    """Scaled dot-product attention over a (batch, tokens, dim) sequence.

    params holds q/k/v/out projection weights (out_dim, in_dim) and biases.
    """
    n, t, d = x.shape
    if d % num_heads != 0:
        raise ShapeMismatch(f"token dim {d} not divisible by {num_heads} heads")
    dh = d // num_heads

    def split(name):
        proj = ad.linear(x, params[f"{name}.weight"], params[f"{name}.bias"])
        return ad.transpose(ad.reshape(proj, (n, t, num_heads, dh)), (0, 2, 1, 3))

    q, k, v = split("q"), split("k"), split("v")
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / dh**0.5)
    ctx = ad.matmul(ad.softmax(scores), v)
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (n, t, d))
    return ad.linear(merged, params["out.weight"], params["out.bias"])


def transformer_layer(x: Tensor, params: dict[str, Tensor], num_heads: int) -> Tensor:
    """Pre-norm residual block: x + MHA(LN(x)), then y + MLP(LN(y))."""
    attn_params = {k[len("attn.") :]: v for k, v in params.items() if k.startswith("attn.")}
    h = ad.layer_norm(x, params["ln1.gamma"], params["ln1.beta"])
    x = x + multi_head_attention(h, attn_params, num_heads)
    h = ad.layer_norm(x, params["ln2.gamma"], params["ln2.beta"])
    h = ad.linear(h, params["mlp.fc1.weight"], params["mlp.fc1.bias"])
    h = ad.gelu(h)
    h = ad.linear(h, params["mlp.fc2.weight"], params["mlp.fc2.bias"])
    return x + h


def _layer_params(ps: ParamStore, prefix: str) -> dict[str, Tensor]:
    plen = len(prefix) + 1
    return {name[plen:]: t for name, t in ps.tensors.items() if name.startswith(prefix + ".")}


def bridge_forward(bridge_in: Tensor, ps: ParamStore) -> Tensor:
    """Token-attention bottleneck; identity when bridge_layers = 0."""
    cfg = ps.config
    if cfg.bridge_layers == 0:
        return bridge_in
    n, c, h, w = bridge_in.shape
    tokens = ad.reshape(ad.transpose(bridge_in, (0, 2, 3, 1)), (n, h * w, c))
    t = ad.linear(tokens, ps["bridge.in_proj.weight"], ps["bridge.in_proj.bias"])
    t = t + ps["bridge.pos_embed"]
    for i in range(cfg.bridge_layers):
        t = transformer_layer(t, _layer_params(ps, f"bridge.layer{i}"), cfg.num_heads)
    t = ad.layer_norm(t, ps["bridge.final_ln.gamma"], ps["bridge.final_ln.beta"])
    t = ad.linear(t, ps["bridge.out_proj.weight"], ps["bridge.out_proj.bias"])
    fm = ad.reshape(t, (n, h, w, c))
    fm = ad.layer_norm(fm, ps["bridge.post_ln.gamma"], ps["bridge.post_ln.beta"])
    fm = ad.transpose(fm, (0, 3, 1, 2))
    fm = ad.conv2d(fm, ps["bridge.conv.weight"], ps["bridge.conv.bias"], stride=1, padding=1)
    return ad.relu(fm)


def decoder_forward(
    bridge_out: Tensor, skips: list[Tensor], ps: ParamStore, training: bool
) -> Tensor:
    """Four upsample-concat-conv blocks, consuming skips S4 down to S1."""
    y = bridge_out
    for i, skip in enumerate(reversed(skips)):
        y = ad.upsample_nearest2x(y)
        y = ad.concat([y, skip], axis=1)
        y = ad.conv2d(y, ps[f"decoder.block{i}.conv.weight"], stride=1, padding=1)
        y = ad.relu(_bn(y, ps, f"decoder.block{i}.bn", training))
    return y


def _check_finite(stage: str, t: Tensor) -> None:
    if not np.isfinite(t.data).all():
        bad = int((~np.isfinite(t.data)).sum())
        raise NonFiniteActivation(f"{bad} non-finite values after {stage} (shape {t.data.shape})")


def model_forward(x, ps: ParamStore, mode: str = "eval") -> Tensor:
    """Full forward pass: (batch, H, W, 3) in, (batch, H, W, 1) probabilities out.

    mode "train" uses batch statistics in the norm layers and updates
    their running estimates; "eval" is a pure function of (params, input).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    training = mode == "train"
    cfg = ps.config
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.ndim != 4 or data.shape[3] != cfg.in_channels:
        raise ShapeMismatch(f"expected (batch, H, W, 3) input, got {data.shape}")
    if data.shape[1] != cfg.input_hw or data.shape[2] != cfg.input_hw:
        raise ShapeMismatch(
            f"input is {data.shape[1]}x{data.shape[2]} but the config wants "
            f"{cfg.input_hw}x{cfg.input_hw}"
        )
    t = ad.transpose(x if isinstance(x, Tensor) else Tensor(data), (0, 3, 1, 2))

    bridge_in, skips = encoder_forward(t, ps, training)
    _check_finite("encoder", bridge_in)
    bridged = bridge_forward(bridge_in, ps)
    _check_finite("bridge", bridged)
    decoded = decoder_forward(bridged, skips, ps, training)
    _check_finite("decoder", decoded)
    y = ad.upsample_nearest2x(decoded)
    y = ad.conv2d(y, ps["head.conv.weight"], ps["head.conv.bias"], stride=1, padding=0)
    probs = ad.sigmoid(y)
    _check_finite("head", probs)
    return ad.transpose(probs, (0, 2, 3, 1))


def model_input(hu_slices: np.ndarray, window: HuWindow) -> np.ndarray:
    """Window a (n, H, W) HU stack into the (n, H, W, 3) float32 model input: one
    normalize_slice call on the stack, then to_model_input on it as one (n*H, W) slice.
    """
    hu_slices = np.asarray(hu_slices)
    if hu_slices.ndim != 3:
        raise ShapeMismatch(f"expected an (n, H, W) HU stack, got shape {hu_slices.shape}")
    n, h, w = hu_slices.shape
    norm = normalize_slice(hu_slices, window)
    return to_model_input(norm.reshape(n * h, w)).reshape(n, h, w, 3)


def predict_probabilities(
    ps: ParamStore, hu_slices: np.ndarray, window: HuWindow, batch_size: int = 8
) -> np.ndarray:
    """Eval-mode (n, H, W) float32 probabilities of a (n, H, W) HU stack.

    Runs model_input and model_forward under no_grad, batch_size slices at
    a time, and holds the whole float32 stack (4 B per voxel) it returns.
    """
    probs = np.empty(np.shape(hu_slices), dtype=np.float32)
    with ad.no_grad():
        for start in range(0, len(probs), batch_size):
            batch = model_input(hu_slices[start : start + batch_size], window)
            probs[start : start + batch_size] = model_forward(batch, ps, mode="eval").data[..., 0]
    return probs


def segment_volume(
    ps: ParamStore,
    volume: Volume,
    window: HuWindow,
    threshold: float = 0.5,
    batch_size: int = 8,
) -> MaskVolume:
    """Run every slice through the net in eval mode and binarize."""
    cfg = ps.config
    if volume.meta.height != cfg.input_hw or volume.meta.width != cfg.input_hw:
        raise DimensionMismatch(
            f"volume slices are {volume.meta.height}x{volume.meta.width}, "
            f"model wants {cfg.input_hw}x{cfg.input_hw}"
        )
    probs = predict_probabilities(ps, volume.voxels, window, batch_size)
    return MaskVolume(meta=volume.meta, voxels=binarize(probs, threshold))
