"""Network wiring: shapes, attention behavior, ablation, checkpoints."""

import json
import struct

import numpy as np
import pytest

from vesselseg import autodiff as ad
from vesselseg.autodiff import Tensor
from vesselseg.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from vesselseg.errors import (
    BadMagic,
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
    bridge_forward,
    decoder_forward,
    encoder_forward,
    init_params,
    model_forward,
    model_input,
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
    ps.validate_manifest()
    manifest = {e.name: e.shape for e in param_manifest(cfg)}
    assert {n: tuple(t.data.shape) for n, t in ps.tensors.items()} == manifest
    # mutating a shape breaks the manifest
    ps.tensors["head.conv.bias"] = Tensor(np.zeros(2))
    with pytest.raises(ShapeMismatch):
        ps.validate_manifest()


def test_bridge_absent_when_zero_layers():
    names = [e.name for e in param_manifest(small_cfg(bridge_layers=0))]
    assert not any(n.startswith("bridge.") for n in names)


def _attn_params(d, scale=0.3):
    params = {}
    for n in ("q", "k", "v", "out"):
        params[f"{n}.weight"] = Tensor(RNG.normal(0, scale, size=(d, d)))
        params[f"{n}.bias"] = Tensor(RNG.normal(0, 0.1, size=(d,)))
    return params


def test_attention_uniform_on_identical_tokens():
    d = 8
    params = _attn_params(d)
    token = RNG.normal(size=(1, 1, d))
    x = np.repeat(token, 5, axis=1)
    out = multi_head_attention(Tensor(x), params, num_heads=2).data
    v = token[0, 0] @ params["v.weight"].data.T + params["v.bias"].data
    expected = v @ params["out.weight"].data.T + params["out.bias"].data
    for t in range(5):
        np.testing.assert_allclose(out[0, t], expected, rtol=1e-10)


def test_attention_permutation_equivariance():
    d = 8
    params = _attn_params(d)
    x = RNG.normal(size=(1, 6, d))
    perm = np.array([3, 1, 5, 0, 2, 4])
    out = multi_head_attention(Tensor(x), params, num_heads=2).data
    out_p = multi_head_attention(Tensor(x[:, perm]), params, num_heads=2).data
    np.testing.assert_allclose(out_p, out[:, perm], rtol=1e-10)


def test_attention_shape_contract():
    d = 512
    params = _attn_params(d, scale=0.02)
    x = RNG.normal(size=(1, 64, d)).astype(np.float32)
    out = multi_head_attention(Tensor(x), params, num_heads=8)
    assert out.data.shape == (1, 64, d)


def _layer_param_dict(d, mlp_ratio=2):
    params = {}
    for nm in ("ln1", "ln2"):
        params[f"{nm}.gamma"] = Tensor(np.ones(d))
        params[f"{nm}.beta"] = Tensor(np.zeros(d))
    for n in ("q", "k", "v", "out"):
        params[f"attn.{n}.weight"] = Tensor(RNG.normal(0, 0.2, size=(d, d)))
        params[f"attn.{n}.bias"] = Tensor(np.zeros(d))
    params["mlp.fc1.weight"] = Tensor(RNG.normal(0, 0.2, size=(mlp_ratio * d, d)))
    params["mlp.fc1.bias"] = Tensor(np.zeros(mlp_ratio * d))
    params["mlp.fc2.weight"] = Tensor(RNG.normal(0, 0.2, size=(d, mlp_ratio * d)))
    params["mlp.fc2.bias"] = Tensor(np.zeros(d))
    return params


def test_transformer_layer_identity_with_zero_projections():
    d = 8
    params = _layer_param_dict(d)
    params["attn.out.weight"] = Tensor(np.zeros((d, d)))
    params["mlp.fc2.weight"] = Tensor(np.zeros((d, 2 * d)))
    x = RNG.normal(size=(2, 5, d))
    out = transformer_layer(Tensor(x), params, num_heads=2)
    np.testing.assert_array_equal(out.data, x)


def test_transformer_layer_shape_and_finite():
    d = 8
    params = _layer_param_dict(d)
    x = RNG.normal(size=(2, 5, d))
    out = transformer_layer(Tensor(x), params, num_heads=2)
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
    x = Tensor(RNG.normal(size=(2, c, 8, 8)), requires_grad=True)
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
    x = Tensor(RNG.normal(size=(1, c_in, 16, 16)).astype(np.float32))
    from vesselseg.model import residual_block

    with ad.no_grad():
        out = residual_block(x, ps, "encoder.layer2.block0", stride=2, training=False)
    assert out.data.shape == (1, c_out, 8, 8)


def test_encoder_shape_trace_small():
    cfg = small_cfg(hw=64)
    ps = init_params(cfg, 0)
    x = Tensor(RNG.uniform(size=(2, 3, 64, 64)).astype(np.float32))
    with ad.no_grad():
        bridge_in, skips = encoder_forward(x, ps, training=False)
    w = cfg.encoder_widths
    assert [s.data.shape for s in skips] == [
        (2, w[0], 32, 32),
        (2, w[1], 16, 16),
        (2, w[2], 8, 8),
        (2, w[3], 4, 4),
    ]
    assert bridge_in.data.shape == (2, w[4], 2, 2)


def test_bridge_identity_when_ablated():
    cfg = small_cfg(bridge_layers=0)
    ps = init_params(cfg, 0)
    x = Tensor(RNG.normal(size=(1, cfg.encoder_widths[4], 2, 2)))
    out = bridge_forward(x, ps)
    assert out is x  # bit-equal by construction


def test_bridge_preserves_shape():
    cfg = small_cfg()
    ps = init_params(cfg, 0)
    x = Tensor(RNG.normal(size=(2, cfg.encoder_widths[4], 2, 2)).astype(np.float32))
    with ad.no_grad():
        out = bridge_forward(x, ps)
    assert out.data.shape == x.data.shape


def test_decoder_channel_sequence():
    cfg = small_cfg(hw=64)
    ps = init_params(cfg, 0)
    x = Tensor(RNG.uniform(size=(1, 3, 64, 64)).astype(np.float32))
    with ad.no_grad():
        bridge_in, skips = encoder_forward(x, ps, training=False)
        y = bridge_in
        shapes = []
        for i, skip in enumerate(reversed(skips)):
            y = ad.upsample_nearest2x(y)
            y = ad.concat([y, skip], axis=1)
            y = ad.conv2d(y, ps[f"decoder.block{i}.conv.weight"], stride=1, padding=1)
            shapes.append(y.data.shape)
        out = decoder_forward(bridge_in, skips, ps, training=False)
    assert [s[1] for s in shapes] == list(cfg.decoder_widths)
    assert out.data.shape == (1, cfg.decoder_widths[-1], 32, 32)


def test_upsample_duplication():
    out = ad.upsample_nearest2x(Tensor(np.array([[[[3.5]]]])))
    np.testing.assert_array_equal(out.data, [[[[3.5, 3.5], [3.5, 3.5]]]])


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


def test_encoder_only_checkpoint(tmp_path):
    ckpt = _small_checkpoint(seed=9)
    enc_names = [n for n in ckpt.params.names() if n.startswith("encoder.")]
    path = tmp_path / "encoder.ckpt"
    save_checkpoint(ckpt, path, names=enc_names)

    with pytest.raises(ManifestMismatch):
        load_checkpoint(path)

    loaded = load_checkpoint(path, encoder_only=True, init_seed=123)
    fresh = init_params(ckpt.config, 123)
    for name in enc_names:
        assert np.array_equal(loaded.params.data(name), ckpt.params.data(name))
    for name in loaded.params.names():
        if not name.startswith("encoder."):
            assert np.array_equal(loaded.params.data(name), fresh.data(name))


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
    encoder = [n for n in ps.names() if n.startswith("encoder.")]
    save_checkpoint(Checkpoint(config=cfg, params=ps), path, names=encoder)
    assert load_checkpoint(path, encoder_only=True).params.trainable_names() == trainable


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


@pytest.mark.parametrize(
    "edit",
    [_negative_offset, _offset_past_end, _fractional_offset, _aliased_offsets, _float_shape, _bool_shape],
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
