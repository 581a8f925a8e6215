"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight phantom study (criteria 7 and 8) trains two small models
once per session and shares them across tests. Everything is seeded, so
the whole suite is reproducible bit-for-bit on one platform.
"""

import math
import time

import numpy as np
import pytest

from vesselseg import autodiff as ad
from vesselseg.autodiff import Tensor
from vesselseg.checkpoint import load_checkpoint, save_checkpoint
from vesselseg.losses import (
    bce_loss,
    bcej_loss,
    binarize,
    dice_metric,
    iou_metric,
    patient_dice,
    soft_jaccard_loss,
)
from vesselseg.model import (
    ModelConfig,
    bridge_forward,
    decoder_forward,
    encoder_forward,
    init_params,
    model_forward,
    predict_probabilities,
    scaled_config,
    tiny_config,
)
from vesselseg.phantom import BoneDecoy, PhantomSpec, centerline_at, generate
from vesselseg.tracker import EVENT_BONE_MERGE, EVENT_LOST, TrackerConfig, track_volume
from vesselseg.training import TrainConfig, evaluate, grad_check, make_folds, train
from vesselseg.volume_io import HuWindow, normalize_slice, to_model_input


def _report(criterion, message):
    print(f"\nACCEPTANCE criterion {criterion} PASS: {message}")


# -- criterion 1: metric oracle equivalence -----------------------------------


def set_counts(pred, gt):
    p = {i for i, v in enumerate(np.asarray(pred).ravel()) if v}
    g = {i for i, v in enumerate(np.asarray(gt).ravel()) if v}
    return len(p & g), len(p), len(g)


def test_criterion_1_metric_oracle():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        pred = rng.integers(0, 2, size=(16, 16))
        gt = rng.integers(0, 2, size=(16, 16))
        inter, np_, ng = set_counts(pred, gt)
        union = np_ + ng - inter
        want_dice = 1.0 if np_ + ng == 0 else 2 * inter / (np_ + ng)
        want_iou = 1.0 if union == 0 else inter / union
        d = dice_metric(pred, gt)
        i = iou_metric(pred, gt)
        worst = max(worst, abs(d - want_dice), abs(i - want_iou), abs(d - 2 * i / (1 + i)))
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(1, f"1000 masks, worst deviation {worst:.2e}, {elapsed:.2f}s")


# -- criterion 2: loss analytics ------------------------------------------------


def test_criterion_2_loss_analytics():
    start = time.time()
    y = np.random.default_rng(2).integers(0, 2, size=500).astype(float)
    bce = bce_loss(np.full(500, 0.5), y)
    assert abs(bce - math.log(2)) <= 1e-9

    n = 1000
    jac = soft_jaccard_loss(np.full(n, 0.5), np.ones(n))
    assert abs(jac - (1.0 - 501.0 / 1001.0)) <= 1e-9

    total = bcej_loss(np.full(n, 0.5), np.ones(n))
    parts = bce_loss(np.full(n, 0.5), np.ones(n)) + jac
    assert abs(total - parts) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, f"ln2={bce:.9f}, jaccard={jac:.9f}, sum ok, {elapsed:.2f}s")


# -- criterion 3: shape contract -------------------------------------------------


def _assert_shape_table(cfg, batch):
    hw = cfg.input_hw
    x = np.random.default_rng(3).uniform(0, 1, (batch, hw, hw, 3)).astype(np.float32)
    ps = init_params(cfg, 0)
    with ad.no_grad():
        bridge_in, skips = encoder_forward(Tensor(x), ps, training=False)
        assert [s.data.shape for s in skips] == [
            (batch, hw // 2, hw // 2, 64),
            (batch, hw // 4, hw // 4, 64),
            (batch, hw // 8, hw // 8, 128),
            (batch, hw // 16, hw // 16, 256),
        ]
        assert bridge_in.data.shape == (batch, hw // 32, hw // 32, 512)
        bridged = bridge_forward(bridge_in, ps)
        assert bridged.data.shape == bridge_in.data.shape
        decoded = decoder_forward(bridged, skips, ps, training=False)
        assert decoded.data.shape == (batch, hw // 2, hw // 2, 32)
        out = model_forward(x, ps, mode="eval")
    assert out.data.shape == (batch, hw, hw, 1)
    assert ((out.data > 0) & (out.data < 1)).all()
    return out.data.shape


def test_criterion_3_shape_contract():
    start = time.time()
    shape_512 = _assert_shape_table(ModelConfig(input_hw=512), batch=1)
    shape_256 = _assert_shape_table(ModelConfig(input_hw=256), batch=2)
    shape_64 = _assert_shape_table(ModelConfig(input_hw=64), batch=1)
    elapsed = time.time() - start
    assert shape_512 == (1, 512, 512, 1)
    assert shape_256 == (2, 256, 256, 1)
    assert shape_64 == (1, 64, 64, 1)
    assert elapsed < 30.0
    _report(3, f"512->{shape_512}, 256->{shape_256}, 64->{shape_64}, skips/bridge/decoder tables hold, {elapsed:.1f}s")


# -- criterion 4: gradient check ---------------------------------------------------


def test_criterion_4_gradient_check():
    start = time.time()
    cfg = tiny_config()  # input 32, widths /8, d_model 32, 1 bridge layer, 2 heads
    report = grad_check(cfg, seed=0, n_samples=100, tol=1e-4)
    elapsed = time.time() - start
    assert report["n_samples"] >= 100
    for group in ("encoder", "bridge_attention", "bridge_pos_embed", "decoder", "head"):
        assert report["group_counts"][group] >= 1, f"no samples from {group}"
    assert report["pass"], f"max rel err {report['max_rel_err']:.3e} at {report['worst_param']}"
    assert elapsed < 300.0
    _report(4, f"max rel err {report['max_rel_err']:.2e} over {report['n_samples']} params, {elapsed:.0f}s")


# -- criterion 5: bridge ablation identity ------------------------------------------


def test_criterion_5_bridge_ablation():
    start = time.time()
    cfg = scaled_config(64, width_divisor=8, bridge_layers=0, d_model=32, num_heads=2)
    ps = init_params(cfg, 0)
    x = Tensor(np.random.default_rng(5).normal(size=(2, 2, 2, cfg.encoder_widths[4])))
    out = bridge_forward(x, ps)
    assert out is x or np.array_equal(out.data, x.data)

    for hw, batch in ((512, 1), (256, 2)):
        ablated = ModelConfig(input_hw=hw, bridge_layers=0)
        shape = _assert_shape_table(ablated, batch)
        assert shape == (batch, hw, hw, 1)
    elapsed = time.time() - start
    _report(5, f"bridge_layers=0 is bit-identity and full shape table still holds, {elapsed:.1f}s")


# -- criterion 6: overfit sanity -------------------------------------------------------


def test_criterion_6_overfit_sanity():
    start = time.time()
    spec = PhantomSpec(
        dims=(8, 128, 128), seed=11,
        trunk_radius_px=44.0, branch_radius_px=14.0, bifurcation_z=6,
    )
    vol, mask = generate(spec)
    cfg = scaled_config(128, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)
    tc = TrainConfig(learning_rate=1e-3, batch_size=1, epochs=200, seed=0)
    ckpt, log = train(cfg, tc, [(vol, mask)])
    assert len(log.entries) == 200

    xs = np.stack([to_model_input(normalize_slice(vol.voxels[z], tc.hu_window)) for z in range(8)])
    ys = mask.voxels.astype(np.float32)[..., None]
    with ad.no_grad():
        probs = model_forward(xs, ckpt.params, mode="eval").data
    final_bcej = bcej_loss(probs, ys)
    final_dice = dice_metric(binarize(probs), ys)
    elapsed = time.time() - start
    assert final_bcej < 0.1, f"BCEJ {final_bcej:.4f}"
    assert final_dice >= 0.95, f"dice {final_dice:.4f}"
    assert elapsed < 600.0
    _report(6, f"train BCEJ {final_bcej:.4f} < 0.1, train dice {final_dice:.4f} >= 0.95, {elapsed:.0f}s")


# -- criteria 7 and 8: phantom study and baseline contrast ----------------------------


# Bone decoys anchor to slice corners, clear of every vessel position (the
# worst-case center-to-decoy clearance over all patients is 7.4 px). Their
# geometry varies per patient so the nets learn bone by intensity, not by
# position.
_DECOY_CORNERS = [(12.0, 12.0), (52.0, 12.0), (12.0, 52.0), (52.0, 52.0)]


def _study_decoys(i):
    a = _DECOY_CORNERS[i % 4]
    b = _DECOY_CORNERS[(i + 2) % 4]
    ja, jb = (i * 5) % 7 - 3, (i * 3) % 7 - 3
    return [
        BoneDecoy(
            center_xy=(a[0] + ja, a[1] + jb),
            radius_px=4.0 + (i % 5),
            contact_z_range=(4 + (i * 3) % 12, 44 + (i * 5) % 20),
        ),
        BoneDecoy(
            center_xy=(b[0] + jb, b[1] + ja),
            radius_px=3.0 + ((i + 2) % 4),
            contact_z_range=(10 + (i * 2) % 10, 60 - (i * 2) % 8),
        ),
    ]


def study_patient_spec(i, variant):
    """Deterministic per-patient geometry for the train/test zoo."""
    jitter = ((i * 7) % 5 - 2, (i * 3) % 5 - 2)
    fields = dict(
        dims=(64, 64, 64),
        seed=1000 + i,
        entry_xy=(32.0 + jitter[0], 32.0 + jitter[1]),
        trunk_radius_px=9.0 + (i % 3),
        branch_radius_px=3.0,
        bifurcation_z=28 + (i % 5) * 2,
        branch_half_angle_deg=12.0 + (i % 4) * 2.0,
        patient_id=f"p{i:02d}",
    )
    if variant == "trunk":
        fields["mask_extent"] = "to_bifurcation"
    else:
        fields["mask_extent"] = "to_end"
        fields["occlusion_z_range"] = (14 + (i % 4) * 2, 22 + (i % 4) * 2)
        fields["bone_decoys"] = _study_decoys(i)
    return PhantomSpec(**fields)


STUDY_MODEL = dict(width_divisor=4, bridge_layers=4, d_model=128, num_heads=8)


@pytest.fixture(scope="module")
def study():
    """Train the small model on 8 patients per variant; evaluate 3 held out."""
    results = {}
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=6, seed=0)
    for variant in ("trunk", "full"):
        patients = [generate(study_patient_spec(i, variant)) for i in range(11)]
        cfg = scaled_config(64, **STUDY_MODEL)
        ckpt, log = train(cfg, tc, patients[:8], val_patients=patients[8:9])
        report = evaluate(ckpt, patients[8:])
        results[variant] = {
            "ckpt": ckpt,
            "report": report,
            "held_out": patients[8:],
            "log": log,
        }
    return results


def test_criterion_7_phantom_study(study):
    trunk = study["trunk"]["report"]
    full = study["full"]["report"]
    assert trunk.mean_dice >= 0.90, f"trunk-only mean dice {trunk.mean_dice:.4f}"
    assert full.mean_dice >= 0.75, f"full-extent mean dice {full.mean_dice:.4f}"
    assert full.mean_dice < trunk.mean_dice, (
        f"expected the harder full-extent task to score below trunk-only: "
        f"{full.mean_dice:.4f} vs {trunk.mean_dice:.4f}"
    )
    _report(
        7,
        f"trunk-only dice {trunk.mean_dice:.4f} >= 0.90, "
        f"full-extent dice {full.mean_dice:.4f} >= 0.75 and below trunk-only",
    )


def _bone_only_mask(spec):
    nz, ny, nx = spec.dims
    xx, yy = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    bone = np.zeros((nz, ny, nx), dtype=bool)
    for decoy in spec.bone_decoys:
        bx, by = decoy.center_xy
        disk = (xx - bx) ** 2 + (yy - by) ** 2 < decoy.radius_px**2
        for z in range(*decoy.contact_z_range):
            bone[z] |= disk
    vessel = np.zeros((nz, ny, nx), dtype=bool)
    for z in range(nz):
        for cx, cy, r in centerline_at(spec, z):
            vessel[z] |= (xx - cx) ** 2 + (yy - cy) ** 2 < r * r
    return bone & ~vessel


def test_criterion_8_baseline_contrast(study):
    start = time.time()
    ckpt = study["full"]["ckpt"]
    window = HuWindow()

    # occlusion phantoms: the three held-out full-extent patients
    for i, (vol, mask) in zip(range(8, 11), study["full"]["held_out"]):
        spec = study_patient_spec(i, "full")
        onset = spec.occlusion_z_range[0]
        seed_xy = (int(spec.entry_xy[0]), int(spec.entry_xy[1]))
        tracked, events = track_volume(
            vol, TrackerConfig(t_lo=200.0, t_hi=500.0, seed_point=seed_xy)
        )
        lost = [e for e in events if e.kind == EVENT_LOST]
        assert len(lost) == 1, f"{spec.patient_id}: expected exactly one lost event"
        assert lost[0].z == onset
        assert tracked.voxels[onset:].sum() == 0, "tracker must stay empty after the occlusion"
        tracker_dice = patient_dice(tracked, mask)
        model_pred = binarize(predict_probabilities(ckpt.params, vol.voxels, window))
        model_dice = dice_metric(model_pred, mask.voxels)
        assert tracker_dice < model_dice, (
            f"{spec.patient_id}: tracker {tracker_dice:.4f} !< model {model_dice:.4f}"
        )

    # bone-contact phantom: shared intensity window pulls the tracker into bone
    bone_spec = PhantomSpec(
        dims=(64, 64, 64), seed=2000,
        entry_xy=(32.0, 32.0), trunk_radius_px=10.0, branch_radius_px=3.0,
        bifurcation_z=28, branch_half_angle_deg=16.0,
        bone_decoys=[BoneDecoy(center_xy=(44.0, 32.0), radius_px=8.0, contact_z_range=(36, 60))],
        patient_id="bone",
    )
    bone_vol, bone_mask = generate(bone_spec)
    tracked, events = track_volume(
        bone_vol, TrackerConfig(t_lo=200.0, t_hi=950.0, seed_point=(32, 32))
    )
    suspects = [e for e in events if e.kind == EVENT_BONE_MERGE]
    assert suspects, "bone contact must raise bone_merge_suspect"
    assert any(36 <= e.z < 60 for e in suspects)
    bone_only = _bone_only_mask(bone_spec)
    assert tracked.voxels[bone_only].sum() > 0, "tracker region must include bone pixels"

    probs = predict_probabilities(ckpt.params, bone_vol.voxels, window)
    best_thr, best_dice = 0.5, -1.0
    for thr in np.linspace(0.1, 0.9, 17):
        d = dice_metric(binarize(probs, thr), bone_mask.voxels)
        if d > best_dice:
            best_thr, best_dice = thr, d
    model_bone_px = int(binarize(probs, best_thr)[bone_only].sum())
    if model_bone_px:
        discrepancy = (
            f" (discrepancy: model mask contains {model_bone_px} bone px "
            f"at threshold {best_thr:.2f})"
        )
    else:
        discrepancy = ""
    elapsed = time.time() - start
    _report(
        8,
        f"tracker loses track at occlusion onset on 3/3 volumes and scores below the model; "
        f"bone merge flagged; model bone px = {model_bone_px} at dice-optimal "
        f"threshold {best_thr:.2f} (dice {best_dice:.4f}){discrepancy}; {elapsed:.0f}s",
    )


# -- criterion 9: fold protocol -----------------------------------------------------


def test_criterion_9_fold_protocol():
    start = time.time()
    ids = [f"p{i:02d}" for i in range(1, 12)]
    plan = make_folds(ids, fold_sizes=(3, 3, 3, 2), val_per_fold=1)
    sizes = [len(f.val_ids) + len(f.test_ids) for f in plan.folds]
    assert sizes == [3, 3, 3, 2]
    excluded = [pid for f in plan.folds for pid in f.val_ids + f.test_ids]
    assert sorted(excluded) == ids  # every patient excluded exactly once
    for fold in plan.folds:
        train_set = set(fold.train_ids)
        assert not train_set & set(fold.val_ids)
        assert not train_set & set(fold.test_ids)
        assert not set(fold.val_ids) & set(fold.test_ids)
        assert train_set | set(fold.val_ids) | set(fold.test_ids) == set(ids)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(9, f"sizes {sizes}, exclusion partition exact, zero leakage, {elapsed:.3f}s")


# -- criterion 10: determinism and persistence ----------------------------------------


def test_criterion_10_determinism_persistence(tmp_path):
    start = time.time()
    spec = PhantomSpec(dims=(6, 32, 32), seed=42)
    v1, m1 = generate(spec)
    v2, m2 = generate(PhantomSpec(dims=(6, 32, 32), seed=42))
    assert v1.voxels.tobytes() == v2.voxels.tobytes()
    assert m1.voxels.tobytes() == m2.voxels.tobytes()

    cfg = scaled_config(32, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)
    p1 = init_params(cfg, 3)
    p2 = init_params(cfg, 3)
    assert all(np.array_equal(p1.data(n), p2.data(n)) for n in p1.names())

    ids = [f"p{i:02d}" for i in range(1, 12)]
    assert make_folds(ids) == make_folds(list(reversed(ids)))

    patients = [generate(PhantomSpec(dims=(4, 32, 32), seed=s, patient_id=f"s{s}")) for s in (1, 2)]
    tc = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=2, seed=9)
    _, log1 = train(cfg, tc, patients)
    _, log2 = train(cfg, tc, patients)
    assert log1.step_losses[:5] == log2.step_losses[:5]

    ckpt, _ = train(cfg, TrainConfig(epochs=1, batch_size=4, seed=9), patients)
    x = np.random.default_rng(0).uniform(size=(2, 32, 32, 3)).astype(np.float32)
    with ad.no_grad():
        before = model_forward(x, ckpt.params, mode="eval").data
    path = tmp_path / "roundtrip.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    with ad.no_grad():
        after = model_forward(x, loaded.params, mode="eval").data
    assert np.array_equal(before, after)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(10, f"phantom bytes, init, folds, first-5-step losses, checkpoint forward all bit-identical, {elapsed:.0f}s")
