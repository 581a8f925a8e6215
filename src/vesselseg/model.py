"""The segmentation network: residual encoder, attention bridge, decoder.

The encoder is a ResNet-34-style stack (7x7 stem, then 3/4/6/3 basic
blocks) from which four skip maps are tapped at H/2, H/4, H/8 and H/16.
Its H/32 output is flattened to tokens, linearly projected, given learned
positional embeddings, run through pre-norm transformer layers, projected
back and re-assembled into a feature map (layer norm + 3x3 conv + ReLU).
With bridge_layers = 0 the bridge is skipped entirely, which degrades the
network to a plain residual U-Net. Each of the four decoder blocks is one
conv-BN-ReLU over its input upsampled 2x and concatenated with one skip;
the conv runs as a 3x3 conv of the skip plus a sub-pixel conv of the
low-res input, so neither the upsampled map nor the concat is built.
model_logits ends in a 1x1 conv head at H/2, one logit per 2x2 output
block, on which training takes its loss; model_forward is their sigmoid
upsampled 2x, in plain numpy off the autodiff tape (both act per pixel,
so they commute with the upsample).

Feature maps are channels-last, (batch, H, W, C), as autodiff's ops take
them: the (batch, H, W, 3) input goes in as it is, the bridge's tokens are
a reshape of the H/32 map, and the head's logits come out as
(batch, H/2, W/2, 1). Parameter shapes do not depend on the layout (conv
weights stay (out, in, kh, kw)).

Every batch norm follows a conv (conv_bn). In train mode it normalizes
with batch statistics; in eval mode its running statistics are folded
into that conv's weight and bias, so an eval forward runs no norm op.

Parameters live in a ParamStore: a flat, canonically ordered mapping from
tensor name to autodiff Tensor whose names and shapes are fixed by the
ModelConfig. Batch-norm running statistics are stored as non-trainable
entries of the same store; a tensor's requires_grad is its trainable flag.
Each parameter is declared (param_manifest) and read (the forward passes)
one way, by its full dotted name such as "bridge.layer0.attn.q.weight":
every block takes the whole store and its own name prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigInvalid, DimensionMismatch, NonFiniteActivation, ShapeMismatch
from .losses import config_digest
from .volume_io import DictConfig, HuWindow, MaskVolume, Volume, normalize_slice, to_model_input

BASE_ENCODER_WIDTHS = (64, 64, 128, 256, 512)
BASE_DECODER_WIDTHS = (256, 128, 64, 32)
ENCODER_BLOCK_COUNTS = (3, 4, 6, 3)


@dataclass(frozen=True)
class ModelConfig(DictConfig):
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

    _error = ShapeMismatch

    def __post_init__(self):
        self._check_types()
        if self.input_hw % 32 != 0 or self.input_hw < 32:
            raise ShapeMismatch(f"input_hw must be a positive multiple of 32, got {self.input_hw}")
        if self.in_channels != 3:
            raise ShapeMismatch(f"in_channels is fixed at 3, got {self.in_channels}")
        if len(self.encoder_widths) != 5 or len(self.encoder_block_counts) != 4:
            raise ShapeMismatch("the encoder needs 5 encoder_widths and 4 encoder_block_counts")
        if len(self.decoder_widths) != 4:
            raise ShapeMismatch("the decoder needs exactly 4 decoder_widths")
        if min(self.encoder_widths + self.encoder_block_counts + self.decoder_widths) < 1:
            raise ShapeMismatch("encoder_widths, encoder_block_counts and decoder_widths need entries >= 1")
        for name, least in (("bridge_layers", 0), ("d_model", 1), ("num_heads", 1), ("mlp_ratio", 1)):
            if getattr(self, name) < least:
                raise ShapeMismatch(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.d_model % self.num_heads != 0:
            raise ShapeMismatch(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if self.out_channels != 1:
            raise ShapeMismatch("out_channels must be 1: single-channel probability output only")

    @property
    def n_tokens(self) -> int:
        return (self.input_hw // 32) ** 2

    def digest(self) -> str:
        return config_digest(self.to_dict())


def scaled_config(
    input_hw: int,
    width_divisor: int = 1,
    bridge_layers: int = 4,
    d_model: int | None = None,
    num_heads: int = 8,
) -> ModelConfig:
    """Shrink every width by a common divisor (for desk-scale runs)."""
    return ModelConfig(
        input_hw=input_hw,
        encoder_widths=tuple(max(1, w // width_divisor) for w in BASE_ENCODER_WIDTHS),
        bridge_layers=bridge_layers,
        d_model=d_model if d_model is not None else max(num_heads, 512 // width_divisor),
        num_heads=num_heads,
        decoder_widths=tuple(max(1, w // width_divisor) for w in BASE_DECODER_WIDTHS),
    )


def tiny_config() -> ModelConfig:
    """Smallest double-precision-friendly config used for gradient checks."""
    return scaled_config(input_hw=32, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)


class ParamEntry(NamedTuple):
    name: str
    shape: tuple[int, ...]
    init: str  # a key of _INITS
    trainable: bool


def _ln_entries(prefix: str, dim: int) -> list[ParamEntry]:
    return [ParamEntry(f"{prefix}.gamma", (dim,), "ones", True), ParamEntry(f"{prefix}.beta", (dim,), "zeros", True)]


def _conv_bn_entries(weight: str, bn: str, shape: tuple[int, ...]) -> list[ParamEntry]:
    """A bias-free conv weight and the batch norm that follows it."""
    return [ParamEntry(weight, shape, "kaiming", True)] + _ln_entries(bn, shape[0]) + [
        ParamEntry(f"{bn}.running_mean", shape[:1], "zeros", False),
        ParamEntry(f"{bn}.running_var", shape[:1], "ones", False),
    ]


def _linear_entries(prefix: str, out_features: int, in_features: int) -> list[ParamEntry]:
    weight = ParamEntry(f"{prefix}.weight", (out_features, in_features), "normal002", True)
    return [weight, ParamEntry(f"{prefix}.bias", (out_features,), "zeros", True)]


def block_stride(layer: int, block: int) -> int:
    """Stride of encoder layer{layer}.block{block}: 2 opens layers 2-4."""
    return 2 if block == 0 and layer > 1 else 1


def param_manifest(cfg: ModelConfig) -> list[ParamEntry]:
    """Canonical (name, shape, init, trainable) list derived from the config.

    A ParamStore is valid iff it holds exactly these names with exactly
    these shapes. With bridge_layers = 0 no bridge entries exist.
    """
    w = cfg.encoder_widths
    entries = _conv_bn_entries("encoder.stem.conv.weight", "encoder.stem.bn", (w[0], cfg.in_channels, 7, 7))
    in_c = w[0]
    for li, (blocks, width) in enumerate(zip(cfg.encoder_block_counts, w[1:]), start=1):
        for bi in range(blocks):
            p = f"encoder.layer{li}.block{bi}"
            entries += _conv_bn_entries(f"{p}.conv1.weight", f"{p}.bn1", (width, in_c, 3, 3))
            entries += _conv_bn_entries(f"{p}.conv2.weight", f"{p}.bn2", (width, width, 3, 3))
            if block_stride(li, bi) != 1 or in_c != width:
                entries += _conv_bn_entries(f"{p}.downsample.conv.weight", f"{p}.downsample.bn", (width, in_c, 1, 1))
            in_c = width

    if cfg.bridge_layers > 0:
        c_b, d, hidden = w[-1], cfg.d_model, cfg.mlp_ratio * cfg.d_model
        entries += _linear_entries("bridge.in_proj", d, c_b)
        entries.append(ParamEntry("bridge.pos_embed", (1, cfg.n_tokens, d), "zeros", True))
        for i in range(cfg.bridge_layers):
            p = f"bridge.layer{i}"
            entries += _ln_entries(f"{p}.ln1", d)
            for proj in ("q", "k", "v", "out"):
                entries += _linear_entries(f"{p}.attn.{proj}", d, d)
            entries += _ln_entries(f"{p}.ln2", d)
            entries += _linear_entries(f"{p}.mlp.fc1", hidden, d) + _linear_entries(f"{p}.mlp.fc2", d, hidden)
        entries += _ln_entries("bridge.final_ln", d) + _linear_entries("bridge.out_proj", c_b, d)
        entries += _ln_entries("bridge.post_ln", c_b)
        entries.append(ParamEntry("bridge.conv.weight", (c_b, c_b, 3, 3), "kaiming", True))
        entries.append(ParamEntry("bridge.conv.bias", (c_b,), "zeros", True))

    ch = w[4]
    for i, (out_c, skip_c) in enumerate(zip(cfg.decoder_widths, w[3::-1])):  # skips S4..S1
        entries += _conv_bn_entries(f"decoder.block{i}.conv.weight", f"decoder.block{i}.bn", (out_c, ch + skip_c, 3, 3))
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


def _kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    bound = np.sqrt(6.0 / int(np.prod(shape[1:])))  # fan_in = shape[1:]
    return rng.uniform(-bound, bound, size=shape)


# ParamEntry.init -> (rng, shape) -> float64 array.
_INITS = {
    "kaiming": _kaiming_uniform,
    "normal002": lambda rng, shape: rng.normal(0.0, 0.02, size=shape),
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
}


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParamStore:
    """Fresh parameters: Kaiming-uniform convolutions, normal(0, 0.02)
    bridge projections, unit/zero norm affines, zero positional embeddings.

    Draws come from one PCG64 stream in manifest order, so a seed pins
    every tensor bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    tensors = {
        e.name: Tensor(_INITS[e.init](rng, e.shape).astype(dtype), requires_grad=e.trainable)
        for e in param_manifest(cfg)
    }
    return ParamStore(cfg, tensors)


# -- forward passes ---------------------------------------------------------


def conv_bn(conv, ps: ParamStore, weight: str, bn: str, training: bool) -> Tensor:
    """conv(W, bias) followed by the batch norm named bn, with W = ps[weight].

    Train mode runs conv(W, None), then batch_norm on batch statistics,
    which also moves the running statistics. Eval mode folds the running
    statistics into the convolution (Jacob et al. 2018, arXiv:1712.05877):
    with s = gamma / sqrt(running_var + eps) it runs one conv(W * s,
    beta - running_mean * s). The fold is built from ad ops, so gamma, beta
    and W get gradients in either mode.
    """
    w = ps[weight]
    if training:
        running = ps.data(f"{bn}.running_mean"), ps.data(f"{bn}.running_var")
        return ad.batch_norm(conv(w, None), ps[f"{bn}.gamma"], ps[f"{bn}.beta"], *running)
    inv = 1.0 / np.sqrt(ps.data(f"{bn}.running_var") + ad.NORM_EPS)
    s = ad.mul(ps[f"{bn}.gamma"], inv)
    bias = ad.add(ps[f"{bn}.beta"], ad.mul(s, -ps.data(f"{bn}.running_mean")))
    return conv(ad.mul(w, ad.reshape(s, (-1, 1, 1, 1))), bias)


def residual_block(x: Tensor, ps: ParamStore, prefix: str, stride: int, training: bool) -> Tensor:
    """conv3x3(stride)-BN-ReLU-conv3x3-BN plus (projected) shortcut, ReLU."""
    conv1 = partial(ad.conv2d, x, stride=stride, padding=1)
    y = ad.relu(conv_bn(conv1, ps, f"{prefix}.conv1.weight", f"{prefix}.bn1", training))
    conv2 = partial(ad.conv2d, y, stride=1, padding=1)
    y = conv_bn(conv2, ps, f"{prefix}.conv2.weight", f"{prefix}.bn2", training)
    if f"{prefix}.downsample.conv.weight" in ps:
        project = partial(ad.conv2d, x, stride=stride, padding=0)
        shortcut = conv_bn(project, ps, f"{prefix}.downsample.conv.weight", f"{prefix}.downsample.bn", training)
    else:
        shortcut = x
    return ad.relu(y + shortcut)


def encoder_forward(
    x: Tensor, ps: ParamStore, training: bool
) -> tuple[Tensor, list[Tensor]]:
    """Run the residual encoder; returns (H/32 map, [S1, S2, S3, S4] skips)."""
    cfg = ps.config
    stem = partial(ad.conv2d, x, stride=2, padding=3)
    s1 = ad.relu(conv_bn(stem, ps, "encoder.stem.conv.weight", "encoder.stem.bn", training))
    y = ad.max_pool2d(s1)
    skips = [s1]
    for li, blocks in enumerate(cfg.encoder_block_counts, start=1):
        for bi in range(blocks):
            y = residual_block(y, ps, f"encoder.layer{li}.block{bi}", block_stride(li, bi), training)
        if li < 4:
            skips.append(y)
    return y, skips


def _linear(x: Tensor, ps: ParamStore, prefix: str) -> Tensor:
    return ad.linear(x, ps[f"{prefix}.weight"], ps[f"{prefix}.bias"])


def _layer_norm(x: Tensor, ps: ParamStore, prefix: str) -> Tensor:
    return ad.layer_norm(x, ps[f"{prefix}.gamma"], ps[f"{prefix}.beta"])


def multi_head_attention(x: Tensor, ps: ParamStore, prefix: str, num_heads: int) -> Tensor:
    """Scaled dot-product attention over a (batch, tokens, dim) sequence,
    with the q/k/v/out projections {prefix}.q ... {prefix}.out."""
    n, t, d = x.shape
    if d % num_heads != 0:
        raise ShapeMismatch(f"token dim {d} not divisible by {num_heads} heads")
    dh = d // num_heads

    def split(name):
        proj = _linear(x, ps, f"{prefix}.{name}")
        return ad.transpose(ad.reshape(proj, (n, t, num_heads, dh)), (0, 2, 1, 3))

    q, k, v = split("q"), split("k"), split("v")
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / dh**0.5)
    ctx = ad.matmul(ad.softmax(scores), v)
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (n, t, d))
    return _linear(merged, ps, f"{prefix}.out")


def transformer_layer(x: Tensor, ps: ParamStore, prefix: str, num_heads: int) -> Tensor:
    """Pre-norm residual block: x + MHA(LN(x)), then y + MLP(LN(y))."""
    x = x + multi_head_attention(_layer_norm(x, ps, f"{prefix}.ln1"), ps, f"{prefix}.attn", num_heads)
    h = ad.gelu(_linear(_layer_norm(x, ps, f"{prefix}.ln2"), ps, f"{prefix}.mlp.fc1"))
    return x + _linear(h, ps, f"{prefix}.mlp.fc2")


def bridge_forward(bridge_in: Tensor, ps: ParamStore) -> Tensor:
    """Token-attention bottleneck; identity when bridge_layers = 0."""
    cfg = ps.config
    if cfg.bridge_layers == 0:
        return bridge_in
    n, h, w, c = bridge_in.shape
    t = _linear(ad.reshape(bridge_in, (n, h * w, c)), ps, "bridge.in_proj") + ps["bridge.pos_embed"]
    for i in range(cfg.bridge_layers):
        t = transformer_layer(t, ps, f"bridge.layer{i}", cfg.num_heads)
    t = _linear(_layer_norm(t, ps, "bridge.final_ln"), ps, "bridge.out_proj")
    fm = _layer_norm(ad.reshape(t, (n, h, w, c)), ps, "bridge.post_ln")
    return ad.relu(ad.conv2d(fm, ps["bridge.conv.weight"], ps["bridge.conv.bias"], stride=1, padding=1))


# Row (and column) fold of a 3x3 kernel read through a nearest 2x upsample:
# output parity a reads low-res rows r - 1 + a and r + a, and A[a][p, i] says
# whether kernel row i lands on the p-th of them.
_UPSAMPLE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]])
# (9, 16): kernel tap (i, j) to phase-kernel tap (a, b, p, q), W_ab = A_a W A_b^T.
_SUBPIXEL_FOLD = np.einsum("api,bqj->ijabpq", _UPSAMPLE_TAPS, _UPSAMPLE_TAPS).reshape(9, 16)


def _upsample_concat_conv(y: Tensor, skip: Tensor, w: Tensor, bias) -> Tensor:
    """conv3x3(concat(upsample2x(y), skip), w, bias), padding 1, without the
    upsample or the concat.

    The skip channels are one 3x3 conv at full size. The y channels are a
    sub-pixel conv (Shi et al. 2016, arXiv:1609.05158): their 3x3 weights
    fold into one 2x2 kernel per output parity, stacked phase-major as
    (4 * c_out, c_y, 2, 2), so the low-res y goes through one conv with 4x
    the output rows and 4/9 of the multiply-adds, and interleave_phases
    places each phase on its output pixels.
    """
    c_out, c_in = w.shape[:2]
    c_y = y.shape[3]
    w_y = ad.reshape(ad.slice_axis(w, 1, 0, c_y), (c_out * c_y, 9))
    folded = ad.reshape(ad.matmul(w_y, _SUBPIXEL_FOLD.astype(w.data.dtype)), (c_out, c_y, 4, 2, 2))
    folded = ad.reshape(ad.transpose(folded, (2, 0, 1, 3, 4)), (4 * c_out, c_y, 2, 2))
    up = ad.interleave_phases(ad.conv2d(y, folded, stride=1, padding=1))
    return ad.conv2d(skip, ad.slice_axis(w, 1, c_y, c_in), bias, stride=1, padding=1) + up


def decoder_forward(
    bridge_out: Tensor, skips: list[Tensor], ps: ParamStore, training: bool
) -> Tensor:
    """Four blocks of conv-BN-ReLU over (upsampled y, skip), consuming skips
    S4 down to S1; each conv runs as _upsample_concat_conv."""
    y = bridge_out
    for i, skip in enumerate(reversed(skips)):
        conv = partial(_upsample_concat_conv, y, skip)
        y = ad.relu(conv_bn(conv, ps, f"decoder.block{i}.conv.weight", f"decoder.block{i}.bn", training))
    return y


def _check_finite(stage: str, t: Tensor) -> None:
    if not np.isfinite(t.data).all():
        bad = int((~np.isfinite(t.data)).sum())
        raise NonFiniteActivation(f"{bad} non-finite values after {stage} (shape {t.data.shape})")


def model_logits(x, ps: ParamStore, mode: str = "eval") -> Tensor:
    """(batch, H, W, 3) in, (batch, H/2, W/2, 1) head logits out.

    mode "train" uses batch statistics in the norm layers and updates
    their running estimates; "eval" is a pure function of (params, input).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    training = mode == "train"
    cfg = ps.config
    data = np.asarray(x)
    if data.ndim != 4 or data.shape[3] != cfg.in_channels:
        raise ShapeMismatch(f"expected (batch, H, W, 3) input, got {data.shape}")
    if data.shape[1] != cfg.input_hw or data.shape[2] != cfg.input_hw:
        raise ShapeMismatch(
            f"input is {data.shape[1]}x{data.shape[2]} but the config wants "
            f"{cfg.input_hw}x{cfg.input_hw}"
        )
    bridge_in, skips = encoder_forward(Tensor(data), ps, training)
    _check_finite("encoder", bridge_in)
    bridged = bridge_forward(bridge_in, ps)
    _check_finite("bridge", bridged)
    decoded = decoder_forward(bridged, skips, ps, training)
    _check_finite("decoder", decoded)
    logits = ad.conv2d(decoded, ps["head.conv.weight"], ps["head.conv.bias"], stride=1, padding=0)
    _check_finite("head", logits)
    return logits


def model_forward(x, ps: ParamStore, mode: str = "eval") -> Tensor:
    """(batch, H, W, 3) in, (batch, H, W, 1) probabilities out: the sigmoid
    of model_logits, upsampled 2x by nearest neighbour, in plain numpy. The
    sigmoid is clamped into the open interval representable in the logits'
    dtype, so saturated logits never round to exactly 0 or 1."""
    z = model_logits(x, ps, mode).data
    e = np.exp(-np.abs(z))
    info = np.finfo(z.dtype)
    p = np.clip(np.where(z >= 0, 1.0, e) / (1.0 + e), info.tiny, 1.0 - info.epsneg).astype(z.dtype, copy=False)
    return Tensor(p.repeat(2, axis=1).repeat(2, axis=2))


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


# Pixels per default eval batch (32 slices at 64²). Twice this, 64 slices at
# 64², raised a train-and-evaluate process's peak RSS by about 10%.
EVAL_BATCH_PIXELS = 1 << 17


def predict_probabilities(
    ps: ParamStore, hu_slices: np.ndarray, window: HuWindow, batch_size: int | None = None
) -> np.ndarray:
    """Eval-mode (n, H, W) float32 probabilities of a (n, H, W) HU stack.

    Runs model_input and model_forward under no_grad, batch_size slices at
    a time, and holds the whole float32 stack (4 B per voxel) it returns.
    batch_size None means max(8, EVAL_BATCH_PIXELS // (H * W)): 128 slices
    at 32², 32 at 64² and 8 from 128² up. Small slices share a forward, so
    its fixed per-op cost is paid fewer times. A batch's eval temporaries
    grow with its pixel count: about 0.3 MiB per 64² slice for the study
    model (10 MiB per 32-slice batch) and 64 MiB per 512² slice at the
    paper's widths (traced numpy peak), so pass a smaller batch_size where
    memory is short.
    """
    if batch_size is None:
        batch_size = max(8, EVAL_BATCH_PIXELS // (ps.config.input_hw * ps.config.input_hw))
    probs = np.empty(np.shape(hu_slices), dtype=np.float32)
    with ad.no_grad():
        for start in range(0, len(probs), batch_size):
            batch = model_input(hu_slices[start : start + batch_size], window)
            probs[start : start + batch_size] = model_forward(batch, ps, mode="eval").data[..., 0]
    return probs


def segment_volume(ps: ParamStore, volume: Volume, window: HuWindow, threshold: float = 0.5) -> MaskVolume:
    """Run every slice through the net in eval mode and binarize at threshold,
    a number in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigInvalid(f"threshold must be a number in [0, 1], got {threshold}")
    cfg = ps.config
    if volume.meta.height != cfg.input_hw or volume.meta.width != cfg.input_hw:
        raise DimensionMismatch(
            f"volume slices are {volume.meta.height}x{volume.meta.width}, "
            f"model wants {cfg.input_hw}x{cfg.input_hw}"
        )
    probs = predict_probabilities(ps, volume.voxels, window)
    return MaskVolume(meta=volume.meta, voxels=probs >= threshold)  # bool: MaskVolume skips its value scan
