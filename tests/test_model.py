"""Network wiring: shapes, attention behavior, ablation, checkpoints."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesselseg
from vesselseg import autodiff as ad
from vesselseg import model as model_module
from vesselseg.autodiff import Tensor
from vesselseg.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from vesselseg.errors import (
    BadMagic,
    ConfigInvalid,
    DimensionMismatch,
    ManifestMismatch,
    NonFiniteActivation,
    ShapeMismatch,
    VersionMismatch,
)
from vesselseg.cli import dispatch
from vesselseg.losses import binarize
from vesselseg.model import (
    ModelConfig,
    ParamStore,
    bridge_forward,
    decoder_forward,
    encoder_forward,
    init_params,
    model_forward,
    model_input,
    model_logits,
    multi_head_attention,
    param_manifest,
    predict_probabilities,
    scaled_config,
    segment_volume,
    tiny_config,
    transformer_layer,
)
from vesselseg.phantom import PhantomSpec, generate
from vesselseg.volume_io import HuWindow, normalize_slice, save_mask, save_volume, to_model_input

RNG = np.random.default_rng(5150)


def small_cfg(hw=64, bridge_layers=1):
    return scaled_config(hw, width_divisor=8, bridge_layers=bridge_layers, d_model=32, num_heads=2)


def test_config_validation():
    with pytest.raises(ShapeMismatch):
        ModelConfig(input_hw=100)
    with pytest.raises(ShapeMismatch):
        ModelConfig(d_model=100, num_heads=3)
    with pytest.raises(ShapeMismatch):
        ModelConfig(in_channels=1)
    with pytest.raises(ShapeMismatch):
        ModelConfig(decoder_widths=(1, 2, 3))


def test_config_dict_roundtrip():
    cfg = tiny_config()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert len(cfg.digest()) == 64


def test_config_dict_and_checkpoint_bytes_are_unchanged(tmp_path):
    assert list(ModelConfig().to_dict().items()) == [
        ("input_hw", 512),
        ("in_channels", 3),
        ("encoder_widths", [64, 64, 128, 256, 512]),
        ("encoder_block_counts", [3, 4, 6, 3]),
        ("bridge_layers", 4),
        ("d_model", 512),
        ("num_heads", 8),
        ("mlp_ratio", 2),
        ("decoder_widths", [256, 128, 64, 32]),
        ("out_channels", 1),
    ]
    assert ModelConfig().digest() == "cc2f0224dfd92a7d6d891f8b89cda4b253c279dca30a90fbc29413d04db74153"
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(Checkpoint(config=tiny_config(), params=init_params(tiny_config(), 0)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "24909c6ca15f2587651fd4e50f1329388062c3563786f53b49e910e1a2b1d9e0"
    )


def test_init_deterministic_per_seed():
    a = init_params(tiny_config(), 7)
    b = init_params(tiny_config(), 7)
    c = init_params(tiny_config(), 8)
    for name in a.names():
        assert np.array_equal(a.data(name), b.data(name))
    assert any(not np.array_equal(a.data(n), c.data(n)) for n in a.names())


def test_manifest_matches_store():
    cfg = tiny_config()
    ps = init_params(cfg, 0)
    manifest = {e.name: e.shape for e in param_manifest(cfg)}
    assert {n: tuple(t.data.shape) for n, t in ps.tensors.items()} == manifest


# sha256 of repr([(name, shape, init, trainable), ...]) over param_manifest(cfg)
# and of every init_params(cfg, 3) tensor's bytes in store order.
_MANIFEST_AND_INIT_SHA256 = {
    "default": (
        "11f4ba4fbb5694f4def8b710174fb089475ec2ebdf4994f82a6541f7bf735b1e",
        "007a080fcd73f7a5abf069673cd6454d0dd6cf68542a1390396255d4128f040d",
    ),
    "study": (
        "ad95f10a72c98282d25b24defeffeedc536b9f64ebb9aaa5f2de0d84a018c80b",
        "c19892e3917d3e8c774b21974e8ac6203cc2374ff370ffd3a008365c0f588fd5",
    ),
    "tiny": (
        "2d4e8a884445c3aa1167ba0109f109fc80f8b1852348ed68780c45128258c6b4",
        "e4f059cc859b00708116218519e9e2928dfb3cb9f230e416bc85e1eaabee861c",
    ),
    "bridgeless": (
        "1fc8cf5f101dbeeb0657ba79cbca0d0c52027d3748bb944d9b947f636510378a",
        "c5065bfbb8c72443ae196755072157a04adc29731530230d67a23114e2ef81f2",
    ),
}


@pytest.mark.parametrize("name", list(_MANIFEST_AND_INIT_SHA256))
def test_manifest_and_init_bytes_are_unchanged(name):
    cfg = {
        "default": ModelConfig(),
        "study": scaled_config(64, width_divisor=4, bridge_layers=4, d_model=128, num_heads=8),
        "tiny": tiny_config(),
        "bridgeless": small_cfg(bridge_layers=0),
    }[name]
    manifest = [(e.name, e.shape, e.init, e.trainable) for e in param_manifest(cfg)]
    init = hashlib.sha256()
    for t in init_params(cfg, 3).tensors.values():
        init.update(t.data.tobytes())
    assert (hashlib.sha256(repr(manifest).encode()).hexdigest(), init.hexdigest()) == _MANIFEST_AND_INIT_SHA256[name]


def test_bridge_absent_when_zero_layers():
    names = [e.name for e in param_manifest(small_cfg(bridge_layers=0))]
    assert not any(n.startswith("bridge.") for n in names)


def _attn_params(d, scale=0.3):
    """q/k/v/out projections named under the prefix "attn"."""
    params = {}
    for n in ("q", "k", "v", "out"):
        params[f"attn.{n}.weight"] = Tensor(RNG.normal(0, scale, size=(d, d)))
        params[f"attn.{n}.bias"] = Tensor(RNG.normal(0, 0.1, size=(d,)))
    return params


def test_attention_uniform_on_identical_tokens():
    d = 8
    params = _attn_params(d)
    token = RNG.normal(size=(1, 1, d))
    x = np.repeat(token, 5, axis=1)
    out = multi_head_attention(Tensor(x), params, "attn", num_heads=2).data
    v = token[0, 0] @ params["attn.v.weight"].data.T + params["attn.v.bias"].data
    expected = v @ params["attn.out.weight"].data.T + params["attn.out.bias"].data
    for t in range(5):
        np.testing.assert_allclose(out[0, t], expected, rtol=1e-10)


def test_attention_permutation_equivariance():
    d = 8
    params = _attn_params(d)
    x = RNG.normal(size=(1, 6, d))
    perm = np.array([3, 1, 5, 0, 2, 4])
    out = multi_head_attention(Tensor(x), params, "attn", num_heads=2).data
    out_p = multi_head_attention(Tensor(x[:, perm]), params, "attn", num_heads=2).data
    np.testing.assert_allclose(out_p, out[:, perm], rtol=1e-10)


def test_attention_shape_contract():
    d = 512
    params = _attn_params(d, scale=0.02)
    x = RNG.normal(size=(1, 64, d)).astype(np.float32)
    out = multi_head_attention(Tensor(x), params, "attn", num_heads=8)
    assert out.data.shape == (1, 64, d)


def _layer_param_dict(d, mlp_ratio=2):
    """One transformer layer's parameters named under the prefix "layer"."""
    params = {}
    for nm in ("ln1", "ln2"):
        params[f"layer.{nm}.gamma"] = Tensor(np.ones(d))
        params[f"layer.{nm}.beta"] = Tensor(np.zeros(d))
    for n in ("q", "k", "v", "out"):
        params[f"layer.attn.{n}.weight"] = Tensor(RNG.normal(0, 0.2, size=(d, d)))
        params[f"layer.attn.{n}.bias"] = Tensor(np.zeros(d))
    params["layer.mlp.fc1.weight"] = Tensor(RNG.normal(0, 0.2, size=(mlp_ratio * d, d)))
    params["layer.mlp.fc1.bias"] = Tensor(np.zeros(mlp_ratio * d))
    params["layer.mlp.fc2.weight"] = Tensor(RNG.normal(0, 0.2, size=(d, mlp_ratio * d)))
    params["layer.mlp.fc2.bias"] = Tensor(np.zeros(d))
    return params


def test_transformer_layer_identity_with_zero_projections():
    d = 8
    params = _layer_param_dict(d)
    params["layer.attn.out.weight"] = Tensor(np.zeros((d, d)))
    params["layer.mlp.fc2.weight"] = Tensor(np.zeros((d, 2 * d)))
    x = RNG.normal(size=(2, 5, d))
    out = transformer_layer(Tensor(x), params, "layer", num_heads=2)
    np.testing.assert_array_equal(out.data, x)


def test_transformer_layer_shape_and_finite():
    d = 8
    params = _layer_param_dict(d)
    x = RNG.normal(size=(2, 5, d))
    out = transformer_layer(Tensor(x), params, "layer", num_heads=2)
    assert out.data.shape == (2, 5, d)
    assert np.isfinite(out.data).all()


def test_residual_block_zero_branch_is_relu():
    cfg = small_cfg(hw=32)
    ps = init_params(cfg, 0)
    # layer1.block1 has no downsample path: identity shortcut
    prefix = "encoder.layer1.block1"
    ps.data(f"{prefix}.conv1.weight")[:] = 0.0
    ps.data(f"{prefix}.conv2.weight")[:] = 0.0
    c = cfg.encoder_widths[1]
    x = Tensor(RNG.normal(size=(2, 8, 8, c)), requires_grad=True)
    from vesselseg.model import residual_block

    out = residual_block(x, ps, prefix, stride=1, training=False)
    np.testing.assert_array_equal(out.data, np.maximum(x.data, 0))
    # the identity path keeps gradients alive even with a dead branch
    ad.tsum(out).backward()
    assert np.abs(x.grad).sum() > 0


def test_residual_block_stride_two_shape():
    cfg = small_cfg(hw=32)
    ps = init_params(cfg, 0)
    c_in, c_out = cfg.encoder_widths[1], cfg.encoder_widths[2]
    x = Tensor(RNG.normal(size=(1, 16, 16, c_in)).astype(np.float32))
    from vesselseg.model import residual_block

    with ad.no_grad():
        out = residual_block(x, ps, "encoder.layer2.block0", stride=2, training=False)
    assert out.data.shape == (1, 8, 8, c_out)


def test_encoder_shape_trace_small():
    cfg = small_cfg(hw=64)
    ps = init_params(cfg, 0)
    x = Tensor(RNG.uniform(size=(2, 64, 64, 3)).astype(np.float32))
    with ad.no_grad():
        bridge_in, skips = encoder_forward(x, ps, training=False)
    w = cfg.encoder_widths
    assert [s.data.shape for s in skips] == [
        (2, 32, 32, w[0]),
        (2, 16, 16, w[1]),
        (2, 8, 8, w[2]),
        (2, 4, 4, w[3]),
    ]
    assert bridge_in.data.shape == (2, 2, 2, w[4])


def test_bridge_identity_when_ablated():
    cfg = small_cfg(bridge_layers=0)
    ps = init_params(cfg, 0)
    x = Tensor(RNG.normal(size=(1, 2, 2, cfg.encoder_widths[4])))
    out = bridge_forward(x, ps)
    assert out is x  # bit-equal by construction


def test_bridge_preserves_shape():
    cfg = small_cfg()
    ps = init_params(cfg, 0)
    x = Tensor(RNG.normal(size=(2, 2, 2, cfg.encoder_widths[4])).astype(np.float32))
    with ad.no_grad():
        out = bridge_forward(x, ps)
    assert out.data.shape == x.data.shape


def test_decoder_channel_sequence():
    cfg = small_cfg(hw=64)
    ps = init_params(cfg, 0)
    x = Tensor(RNG.uniform(size=(1, 64, 64, 3)).astype(np.float32))
    with ad.no_grad():
        bridge_in, skips = encoder_forward(x, ps, training=False)
        y = bridge_in.data
        shapes = []
        for i, skip in enumerate(reversed(skips)):
            y = np.concatenate([y.repeat(2, axis=1).repeat(2, axis=2), skip.data], axis=3)
            y = ad.conv2d(Tensor(y), ps[f"decoder.block{i}.conv.weight"], stride=1, padding=1).data
            shapes.append(y.shape)
        out = decoder_forward(bridge_in, skips, ps, training=False)
    assert [s[3] for s in shapes] == list(cfg.decoder_widths)
    assert out.data.shape == (1, 32, 32, cfg.decoder_widths[-1])


# -- the folded eval norm and the sub-pixel decoder against the unfolded oracle --


def _concat_oracle(a: Tensor, b: Tensor) -> Tensor:
    """Channel concat as a graph node, as the decoder ran it before the sub-pixel conv."""
    c = a.shape[3]
    return ad._make(np.concatenate([a.data, b.data], axis=3), [(a, lambda g: g[..., :c]), (b, lambda g: g[..., c:])])


def _upsample_oracle(x: Tensor) -> Tensor:
    """Nearest 2x upsample as a graph node: each pixel becomes a 2 x 2 block,
    and its gradient is the sum over that block."""
    n, h, w, c = x.shape
    up = x.data.repeat(2, axis=1).repeat(2, axis=2)
    return ad._make(up, [(x, lambda g: g.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4)))])


def _upsample_concat_conv_oracle(y, skip, w, bias):
    return ad.conv2d(_concat_oracle(_upsample_oracle(y), skip), w, bias, stride=1, padding=1)


def _unfolded_conv_bn(conv, ps, weight, bn, training):
    """conv, then batch norm; in eval (x - running_mean) / sqrt(running_var + eps) * gamma + beta."""
    y = conv(ps[weight], None)
    gamma, beta, mean, var = (f"{bn}.{k}" for k in ("gamma", "beta", "running_mean", "running_var"))
    if training:
        return ad.batch_norm(y, ps[gamma], ps[beta], ps.data(mean), ps.data(var))
    shape = (1, 1, 1, -1)
    xhat = ad.mul(ad.add(y, -ps.data(mean).reshape(shape)), 1.0 / np.sqrt(ps.data(var).reshape(shape) + 1e-5))
    return ad.add(ad.mul(xhat, ad.reshape(ps[gamma], shape)), ad.reshape(ps[beta], shape))


def _unfold(monkeypatch):
    monkeypatch.setattr(model_module, "conv_bn", _unfolded_conv_bn)
    monkeypatch.setattr(model_module, "_upsample_concat_conv", _upsample_concat_conv_oracle)


def _perturb_norms(ps, rng, stats: bool) -> None:
    for name in ps.names():
        if not name.startswith(("encoder.", "decoder.")):
            continue
        data = ps.data(name)
        if name.endswith(".gamma"):
            data[:] = rng.uniform(0.8, 1.2, data.shape)
        elif name.endswith(".beta"):
            data[:] = rng.normal(0.0, 0.1, data.shape)
        elif stats and name.endswith(".running_mean"):
            data[:] = rng.normal(0.0, 0.3, data.shape)
        elif stats and name.endswith(".running_var"):
            data[:] = rng.uniform(0.5, 2.0, data.shape)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("training", [False, True])
def test_decoder_forward_matches_the_upsample_concat_oracle(monkeypatch, dtype, tol, training):
    cfg = small_cfg(hw=64)
    rng = np.random.default_rng(11)
    w = cfg.encoder_widths
    shapes = [(2, 2, 2, w[4])] + [(2, 32 >> i, 32 >> i, w[i]) for i in range(4)]
    inputs = [rng.normal(size=s).astype(dtype) for s in shapes]
    m = rng.normal(size=(2, 32, 32, cfg.decoder_widths[-1])).astype(dtype)
    results = []
    for unfolded in (False, True):
        ps = init_params(cfg, 0, dtype=dtype)
        _perturb_norms(ps, np.random.default_rng(12), stats=True)
        bridge_out, *skips = [Tensor(a, requires_grad=True) for a in inputs]
        with monkeypatch.context() as mp:
            if unfolded:
                _unfold(mp)
            out = decoder_forward(bridge_out, skips, ps, training=training)
        ad.tsum(ad.mul(out, m)).backward()
        grads = {n: ps[n].grad for n in ps.trainable_names() if n.startswith("decoder.")}
        grads |= {f"input{i}": t.grad for i, t in enumerate([bridge_out] + skips)}
        stats = {n: ps.data(n).copy() for n in ps.names() if n.startswith("decoder.") and "running" in n}
        results.append((out.data, grads, stats))
    (got, got_grads, got_stats), (want, want_grads, want_stats) = results
    assert got.dtype == dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= tol
    for name, g in want_grads.items():
        assert got_grads[name].dtype == dtype
        assert np.abs(got_grads[name] - g).max() <= tol * max(1.0, np.abs(g).max()), name
    for name, v in want_stats.items():
        np.testing.assert_allclose(got_stats[name], v, rtol=tol, atol=tol)


def _clamped_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function clamped into [tiny, 1 - epsneg] of z's dtype, step
    by step as the eval probabilities are defined: the byte-level reference."""
    e = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0, e) / (1.0 + e)
    info = np.finfo(z.dtype)
    return np.clip(p, info.tiny, 1.0 - info.epsneg).astype(z.dtype, copy=False)


def test_eval_probabilities_match_the_unfolded_model(monkeypatch):
    cfg = scaled_config(64)
    ps = init_params(cfg, 3)
    rng = np.random.default_rng(4)
    with ad.no_grad():
        for _ in range(2):  # running statistics from real activations
            model_forward(rng.uniform(size=(4, 64, 64, 3)).astype(np.float32), ps, mode="train")
        _perturb_norms(ps, rng, stats=False)
        x = rng.uniform(size=(2, 64, 64, 3)).astype(np.float32)
        got = model_forward(x, ps, mode="eval").data

        def head_after_upsample():
            bridge_in, skips = encoder_forward(Tensor(x), ps, training=False)
            decoded = decoder_forward(bridge_forward(bridge_in, ps), skips, ps, training=False)
            y = ad.conv2d(_upsample_oracle(decoded), ps["head.conv.weight"], ps["head.conv.bias"])
            return _clamped_sigmoid(y.data)

        # the head acts per pixel, so running it before the upsample changes no bit
        np.testing.assert_array_equal(got, head_after_upsample())
        with monkeypatch.context() as mp:
            _unfold(mp)
            want = head_after_upsample()
    assert want.min() < 0.5 < want.max()
    assert np.abs(got - want).max() <= 1e-5


def test_model_forward_shape_range_determinism():
    cfg = small_cfg()
    ps = init_params(cfg, 0)
    x = RNG.uniform(size=(2, 64, 64, 3)).astype(np.float32)
    with ad.no_grad():
        out1 = model_forward(x, ps, mode="eval").data
        out2 = model_forward(x, ps, mode="eval").data
    assert out1.shape == (2, 64, 64, 1)
    assert ((out1 > 0) & (out1 < 1)).all()
    np.testing.assert_array_equal(out1, out2)


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_model_forward_is_the_upsampled_sigmoid_of_model_logits(mode):
    ps = init_params(small_cfg(), 0)
    x = RNG.uniform(size=(2, 64, 64, 3)).astype(np.float32)
    with ad.no_grad():
        probs = model_forward(x, ps.copy(), mode=mode).data
        logits = model_logits(x, ps.copy(), mode=mode)
    assert logits.shape == (2, 32, 32, 1)
    want = _clamped_sigmoid(logits.data).repeat(2, axis=1).repeat(2, axis=2)
    assert probs.dtype == want.dtype == np.float32
    assert probs.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [40.0, -40.0, -1000.0])
def test_saturated_logits_keep_probabilities_inside_0_1(bias, dtype, mode):
    """A head bias of +40 rounds the sigmoid to 1 in both dtypes, and -1000
    underflows it to 0; the clamp keeps every probability strictly inside
    (0, 1), with the reference formula's bytes."""
    ps = init_params(small_cfg(), 0, dtype=dtype)
    ps.data("head.conv.bias")[:] = bias
    x = RNG.uniform(size=(2, 64, 64, 3)).astype(dtype)
    with ad.no_grad():
        probs = model_forward(x, ps.copy(), mode=mode).data
        logits = model_logits(x, ps.copy(), mode=mode).data
    want = _clamped_sigmoid(logits).repeat(2, axis=1).repeat(2, axis=2)
    assert probs.dtype == want.dtype == dtype
    assert probs.tobytes() == want.tobytes()
    assert ((probs > 0) & (probs < 1)).all()
    info = np.finfo(dtype)
    if bias == 40.0:
        assert (probs == 1.0 - info.epsneg).any()
    if bias == -1000.0:
        assert (probs == info.tiny).all()


def test_model_forward_input_validation():
    ps = init_params(small_cfg(), 0)
    with pytest.raises(ShapeMismatch):
        model_forward(np.zeros((1, 32, 32, 3), dtype=np.float32), ps)
    with pytest.raises(ShapeMismatch):
        model_forward(np.zeros((1, 64, 64, 1), dtype=np.float32), ps)
    with pytest.raises(ValueError):
        model_forward(np.zeros((1, 64, 64, 3), dtype=np.float32), ps, mode="test")


def test_model_forward_nonfinite_detection():
    ps = init_params(small_cfg(), 0)
    ps.data("encoder.stem.conv.weight")[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteActivation):
        with ad.no_grad():
            model_forward(np.zeros((1, 64, 64, 3), dtype=np.float32), ps, mode="eval")


def test_running_stats_only_move_in_train_mode():
    ps = init_params(small_cfg(), 0)
    x = RNG.uniform(size=(2, 64, 64, 3)).astype(np.float32)
    before = ps.data("encoder.stem.bn.running_mean").copy()
    with ad.no_grad():
        model_forward(x, ps, mode="eval")
    np.testing.assert_array_equal(ps.data("encoder.stem.bn.running_mean"), before)
    with ad.no_grad():
        model_forward(x, ps, mode="train")
    assert not np.array_equal(ps.data("encoder.stem.bn.running_mean"), before)


def test_segment_volume_contracts():
    cfg = small_cfg()
    ps = init_params(cfg, 0)
    vol, _ = generate(PhantomSpec(dims=(3, 64, 64), seed=2))
    window = HuWindow()
    mask = segment_volume(ps, vol, window)
    assert mask.voxels.shape == vol.voxels.shape
    empty = segment_volume(ps, vol, window, threshold=1.0)
    assert empty.voxels.sum() == 0

    small, _ = generate(PhantomSpec(dims=(2, 32, 32), seed=2))
    with pytest.raises(DimensionMismatch):
        segment_volume(ps, small, window)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf"), -0.1, 1.5])
def test_segment_volume_rejects_a_threshold_outside_0_1(threshold):
    ps = init_params(small_cfg(hw=32), 0)
    vol, _ = generate(PhantomSpec(dims=(2, 32, 32), seed=2))
    with pytest.raises(ConfigInvalid, match="threshold"):
        segment_volume(ps, vol, HuWindow(), threshold=threshold)


def test_segment_volume_trained_on_empty_stays_near_empty():
    spec = PhantomSpec(dims=(8, 32, 32), seed=6, trunk_radius_px=0.0, branch_radius_px=0.0)
    vol, mask = generate(spec)
    assert mask.voxels.sum() == 0
    from vesselseg.training import TrainConfig, train

    cfg = small_cfg(hw=32)
    ckpt, _ = train(cfg, TrainConfig(learning_rate=1e-3, batch_size=1, epochs=40, seed=0), [(vol, mask)])
    pred = segment_volume(ckpt.params, vol, HuWindow())
    assert pred.voxels.mean() < 0.02


def _small_checkpoint(seed=3):
    cfg = small_cfg(hw=32)
    ps = init_params(cfg, seed)
    return Checkpoint(config=cfg, params=ps, meta={"seed": seed, "epoch": 1, "loss": 0.5})


def test_checkpoint_roundtrip_bit_identical_forward(tmp_path):
    ckpt = _small_checkpoint()
    x = RNG.uniform(size=(1, 32, 32, 3)).astype(np.float32)
    with ad.no_grad():
        before = model_forward(x, ckpt.params, mode="eval").data
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.meta["epoch"] == 1
    with ad.no_grad():
        after = model_forward(x, loaded.params, mode="eval").data
    np.testing.assert_array_equal(before, after)
    for name in ckpt.params.names():
        assert np.array_equal(ckpt.params.data(name), loaded.params.data(name))
        assert loaded.params.data(name).flags.writeable  # training may update it in place


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        load_checkpoint(path)

    good = tmp_path / "good.ckpt"
    save_checkpoint(_small_checkpoint(), good)
    data = good.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(data[: len(data) // 2])
    with pytest.raises((BadMagic, ManifestMismatch)):
        load_checkpoint(trunc)


def test_checkpoint_version_mismatch(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(_small_checkpoint(), good)
    raw = bytearray(good.read_bytes())
    raw[4] = 9  # bump the little-endian version field
    bad = tmp_path / "version.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        load_checkpoint(bad)


_WRITE_UNDER_SIZE_LIMIT = """
import resource, signal, sys
from vesselseg.checkpoint import Checkpoint, save_checkpoint
from vesselseg.model import init_params, scaled_config

cfg = scaled_config(32, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)
limit = int(sys.argv[2])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
save_checkpoint(Checkpoint(config=cfg, params=init_params(cfg, 4)), sys.argv[1])
"""


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_checkpoint(seed=3), path)
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    # a second writer runs out of file size half-way through the tensor data
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _WRITE_UNDER_SIZE_LIMIT, str(path), str(len(before) // 2)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and "OSError" in proc.stderr, proc.stderr
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_encoder_only_checkpoint(tmp_path):
    """A file holding only the encoder.* tensors does not match the manifest."""
    ckpt = _small_checkpoint(seed=9)
    encoder = {n: t for n, t in ckpt.params.tensors.items() if n.startswith("encoder.")}
    path = tmp_path / "encoder.ckpt"
    save_checkpoint(Checkpoint(config=ckpt.config, params=ParamStore(ckpt.config, encoder)), path)
    with pytest.raises(ManifestMismatch, match="missing"):
        load_checkpoint(path)


# -- the slice-to-input and probability paths ----------------------------------------


def _oracle_input(hu, window):
    return np.stack([to_model_input(normalize_slice(s, window)) for s in hu])


@pytest.mark.parametrize("window", [HuWindow(), HuWindow(-1024.0, 3071.0), HuWindow(-150.5, 250.25)])
def test_model_input_matches_per_slice_path(window):
    edges = [-32768, 32767, -1, 0, 1, int(window.lo), int(window.hi), int(window.lo) - 1, int(window.hi) + 1]
    hu = RNG.integers(-32768, 32768, size=(5, 6, 4)).astype(np.int16)
    hu.reshape(-1)[: len(edges)] = edges
    x = model_input(hu, window)
    oracle = _oracle_input(hu, window)
    assert x.shape == (5, 6, 4, 3) and x.dtype == np.float32
    assert x.tobytes() == oracle.tobytes()
    assert x.min() == 0.0 and x.max() == 1.0
    with pytest.raises(ShapeMismatch):
        model_input(hu[0], window)


def test_predict_probabilities_matches_batched_forward():
    ps = init_params(small_cfg(hw=32), 4)
    vol, _ = generate(PhantomSpec(dims=(7, 32, 32), seed=8))
    window = HuWindow()
    probs = predict_probabilities(ps, vol.voxels, window, batch_size=3)
    x = _oracle_input(vol.voxels, window)
    with ad.no_grad():
        oracle = np.concatenate(
            [model_forward(x[s : s + 3], ps, mode="eval").data[..., 0] for s in (0, 3, 6)]
        )
    assert probs.shape == (7, 32, 32) and probs.dtype == np.float32
    assert probs.tobytes() == oracle.tobytes()


STUDY_CFG = scaled_config(64, width_divisor=4, bridge_layers=4, d_model=128, num_heads=8)


@pytest.mark.parametrize("hw, batch", [(32, 128), (64, 32), (128, 8), (512, 8)])
def test_predict_probabilities_batches_by_pixels(monkeypatch, hw, batch):
    """The default batch is max(8, 2^17 // (H * W)) slices; with model_forward
    stubbed out the 512^2 case costs only its input windowing."""
    sizes = []

    def counting_forward(x, ps, mode):
        sizes.append(len(x))
        return Tensor(np.zeros(x.shape[:3] + (1,), np.float32))

    monkeypatch.setattr(model_module, "model_forward", counting_forward)
    n = 2 * batch + 1
    hu = np.zeros((n, hw, hw), np.int16)
    probs = predict_probabilities(ParamStore(scaled_config(hw), {}), hu, HuWindow())
    assert sizes == [batch, batch, 1]  # ceil(n / batch) forwards
    assert probs.shape == (n, hw, hw)


@pytest.mark.parametrize("cfg", [STUDY_CFG, scaled_config(64)], ids=["study", "paper_width"])
@pytest.mark.parametrize("seed", [0, 1])
def test_default_batch_probabilities_equal_batch_8_bytes(cfg, seed):
    """At 64^2 the default 32-slice batches give the same bytes as 8-slice ones."""
    ps = init_params(cfg, seed)
    vol, _ = generate(PhantomSpec(dims=(40, 64, 64), seed=seed))
    window = HuWindow()
    probs = predict_probabilities(ps, vol.voxels, window)
    assert probs.tobytes() == predict_probabilities(ps, vol.voxels, window, batch_size=8).tobytes()


def test_tiny_config_default_batch_agrees_with_batch_8():
    """At 32^2 the default batch is 128 slices. For tiny_config the two batch
    sizes differ by a few 1e-7: each GEMM's row count grows with the batch, and
    OpenBLAS picks its kernel (and so its summation order) by matrix size, so
    this case is held to 1e-6 rather than to the bytes."""
    ps = init_params(tiny_config(), 3)
    vol, _ = generate(PhantomSpec(dims=(20, 32, 32), seed=3))
    window = HuWindow()
    probs = predict_probabilities(ps, vol.voxels, window)
    np.testing.assert_allclose(probs, predict_probabilities(ps, vol.voxels, window, batch_size=8), rtol=0, atol=1e-6)


def test_segment_volume_is_binarized_probabilities():
    ps = init_params(small_cfg(hw=32), 2)
    vol, _ = generate(PhantomSpec(dims=(5, 32, 32), seed=9))
    window = HuWindow()
    probs = predict_probabilities(ps, vol.voxels, window)
    threshold = float(np.median(probs))
    mask = segment_volume(ps, vol, window, threshold=threshold)
    expected = binarize(probs, threshold)
    assert 0 < expected.sum() < expected.size
    assert mask.voxels.dtype == np.uint8
    np.testing.assert_array_equal(mask.voxels, expected)


def test_trainable_names_follow_the_manifest(tmp_path):
    cfg = small_cfg(hw=32)
    trainable = [e.name for e in param_manifest(cfg) if e.trainable]
    ps = init_params(cfg, 0)
    assert ps.trainable_names() == trainable
    assert ps.copy().trainable_names() == trainable
    path = tmp_path / "model.ckpt"
    save_checkpoint(Checkpoint(config=cfg, params=ps), path)
    assert load_checkpoint(path).params.trainable_names() == trainable


# -- checkpoint byte ranges -----------------------------------------------------------


def _edit_header(src, dst, edit):
    """Copy a checkpoint, passing its parsed JSON header through edit()."""
    raw = src.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    edit(header["tensors"], len(raw) - 16 - header_len)
    new = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + header_len :])


def _negative_offset(tensors, data_len):
    tensors["encoder.stem.conv.weight"]["offset"] = -4


def _offset_past_end(tensors, data_len):
    tensors["head.conv.bias"]["offset"] = data_len


def _fractional_offset(tensors, data_len):
    tensors["encoder.stem.conv.weight"]["offset"] = 0.5


def _aliased_offsets(tensors, data_len):
    tensors["encoder.stem.bn.beta"]["offset"] = tensors["encoder.stem.bn.gamma"]["offset"]


def _float_shape(tensors, data_len):
    tensors["encoder.stem.conv.weight"]["shape"][1] = 3.0


def _bool_shape(tensors, data_len):
    tensors["head.conv.bias"]["shape"] = [True]


def _extra_tensor(tensors, data_len):
    tensors["head.conv.extra"] = {"dtype": "f32", "shape": [1], "offset": 0}


def _wrong_integer_shape(tensors, data_len):
    tensors["head.conv.bias"]["shape"] = [2]


@pytest.mark.parametrize(
    "edit",
    [_negative_offset, _offset_past_end, _fractional_offset, _aliased_offsets, _float_shape, _bool_shape,
     _extra_tensor, _wrong_integer_shape],
)
def test_checkpoint_rejects_bad_tensor_entries(tmp_path, capsys, edit):
    good = tmp_path / "good.ckpt"
    save_checkpoint(_small_checkpoint(), good)
    load_checkpoint(good)
    bad = tmp_path / "bad.ckpt"
    _edit_header(good, bad, edit)
    with pytest.raises(ManifestMismatch):
        load_checkpoint(bad)

    vol, mask = generate(PhantomSpec(dims=(2, 32, 32), seed=1))
    save_volume(vol, tmp_path / "p")
    save_mask(mask, tmp_path / "p")
    result = dispatch(["eval", "--ckpt", str(bad), "--data", str(tmp_path / "p"),
                       "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert result.exit_code == 1
    assert "Traceback" not in err and "bad.ckpt" in err


_EVAL_FORWARD_512 = """
import time
import numpy as np
from vesselseg import autodiff as ad
from vesselseg.model import ModelConfig, init_params, model_forward

params = init_params(ModelConfig(), seed=0)
x = np.random.default_rng(0).uniform(size=(4, 512, 512, 3)).astype(np.float32)
times = []
with ad.no_grad():
    for _ in range(4):  # the first call warms up
        start = time.perf_counter()
        probs = model_forward(x, params, mode="eval").data
        times.append(time.perf_counter() - start)
if probs.shape != (4, 512, 512, 1) or not ((probs > 0) & (probs < 1)).all():
    raise SystemExit(f"bad probabilities {probs.shape}")
print(float(np.median(times[1:])))  # seconds per batch of four slices
"""


def test_full_width_512_eval_forward_runs_in_a_fresh_process():
    """The paper-size eval forward on a batch of four 512^2 slices, as CI
    times it: (4, 512, 512, 1) probabilities in (0, 1)."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _EVAL_FORWARD_512], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert float(proc.stdout.split()[-1]) > 0
