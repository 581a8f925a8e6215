"""Loss analytics and metric oracle equivalence."""

import json
import math

import numpy as np
import pytest

from vesselseg import autodiff as ad
from vesselseg.autodiff import Tensor
from vesselseg.errors import DimensionMismatch, ShapeMismatch
from vesselseg.losses import (
    MetricsReport,
    PatientResult,
    bce_loss,
    bcej_loss,
    binarize,
    dice_metric,
    iou_metric,
    patient_dice,
    soft_jaccard_loss,
)
from vesselseg.training import block_counts
from vesselseg.volume_io import MaskVolume, VolumeMeta

RNG = np.random.default_rng(77)


def set_dice(pred, gt):
    """Independent set-cardinality computation over explicit index sets."""
    p = {i for i, v in enumerate(np.asarray(pred).ravel()) if v}
    g = {i for i, v in enumerate(np.asarray(gt).ravel()) if v}
    if not p and not g:
        return 1.0
    return 2 * len(p & g) / (len(p) + len(g))


def set_iou(pred, gt):
    p = {i for i, v in enumerate(np.asarray(pred).ravel()) if v}
    g = {i for i, v in enumerate(np.asarray(gt).ravel()) if v}
    if not p and not g:
        return 1.0
    return len(p & g) / len(p | g)


def test_bce_analytics():
    y = RNG.integers(0, 2, size=100).astype(float)
    assert bce_loss(np.full(100, 0.5), y) == pytest.approx(math.log(2), abs=1e-12)
    assert bce_loss(np.array([0.9]), np.array([1.0])) == pytest.approx(-math.log(0.9), abs=1e-12)
    clamp_floor = -math.log(1 - 1e-7)
    assert bce_loss(y, y) == pytest.approx(clamp_floor, abs=1e-13)


def test_bce_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        bce_loss(np.zeros(3), np.zeros(4))


def test_soft_jaccard_analytics():
    y = RNG.integers(0, 2, size=64).astype(float)
    assert soft_jaccard_loss(y, y) == pytest.approx(0.0, abs=1e-12)
    n = 1000
    expected = 1.0 - 501.0 / 1001.0
    assert soft_jaccard_loss(np.full(n, 0.5), np.ones(n)) == pytest.approx(expected, abs=1e-12)
    assert soft_jaccard_loss(np.zeros(8), np.zeros(8)) == 0.0


def test_bcej_is_sum_and_dominates_jaccard():
    p = RNG.uniform(0.01, 0.99, size=200)
    y = RNG.integers(0, 2, size=200).astype(float)
    assert bcej_loss(p, y) == pytest.approx(bce_loss(p, y) + soft_jaccard_loss(p, y), abs=1e-12)
    assert bcej_loss(p, y) >= soft_jaccard_loss(p, y)
    # the worked example: ln 2 + (1 - 501/1001)
    total = bcej_loss(np.full(1000, 0.5), np.ones(1000))
    assert total == pytest.approx(math.log(2) + 1 - 501 / 1001, abs=1e-12)


def test_binarize():
    p = np.array([0.5, 0.4999, 0.0, 1.0])
    np.testing.assert_array_equal(binarize(p), [1, 0, 0, 1])
    b = binarize(RNG.uniform(size=50))
    np.testing.assert_array_equal(binarize(b.astype(float)), b)


def test_metric_examples():
    a = np.array([1, 1, 0, 0])
    assert iou_metric(a, a) == 1.0
    assert dice_metric(a, a) == 1.0
    assert iou_metric(np.array([1, 0]), np.array([0, 1])) == 0.0
    pred = np.array([1, 1, 0, 0])
    gt = np.array([0, 1, 1, 0])
    assert iou_metric(pred, gt) == pytest.approx(1 / 3)
    assert dice_metric(pred, gt) == pytest.approx(0.5)
    assert iou_metric(np.zeros(4), np.zeros(4)) == 1.0
    assert dice_metric(np.zeros(4), np.zeros(4)) == 1.0


def test_metric_oracle_equivalence_and_identity():
    for _ in range(300):
        pred = RNG.integers(0, 2, size=(16, 16))
        gt = RNG.integers(0, 2, size=(16, 16))
        d = dice_metric(pred, gt)
        i = iou_metric(pred, gt)
        assert abs(d - set_dice(pred, gt)) <= 1e-12
        assert abs(i - set_iou(pred, gt)) <= 1e-12
        assert abs(d - 2 * i / (1 + i)) <= 1e-12


def test_metric_symmetry_and_bounds():
    for _ in range(50):
        a = RNG.integers(0, 2, size=30)
        b = RNG.integers(0, 2, size=30)
        assert dice_metric(a, b) == dice_metric(b, a)
        assert iou_metric(a, b) == iou_metric(b, a)
        assert 0.0 <= dice_metric(a, b) <= 1.0
        assert 0.0 <= iou_metric(a, b) <= 1.0


def test_soft_jaccard_approaches_hard_iou():
    pred = RNG.integers(0, 2, size=500).astype(float)
    gt = RNG.integers(0, 2, size=500).astype(float)
    union = np.logical_or(pred, gt).sum()
    eps = 1e-9
    soft = soft_jaccard_loss(pred, gt, eps=eps)
    hard = 1.0 - iou_metric(pred, gt)
    assert abs(soft - hard) <= eps / max(union, 1) + 1e-12


def test_bcej_gradient_finite_and_matches_fd():
    """The training op's gradient in the logits is the derivative of bcej_loss
    on the nearest-upsampled sigmoid, by central differences."""
    z = Tensor(RNG.normal(scale=2.0, size=(2, 4, 5, 1)), requires_grad=True)
    mask = RNG.integers(0, 2, size=(2, 8, 10)).astype(np.uint8)
    ad.bcej_from_logits(z, block_counts(mask)).backward()
    assert np.isfinite(z.grad).all()

    def loss(logits):
        p = (1.0 / (1.0 + np.exp(-logits))).repeat(2, axis=1).repeat(2, axis=2)
        return bcej_loss(p, mask[..., None])

    h = 1e-6
    for i in (0, 13, 39):
        zp, zm = z.data.copy(), z.data.copy()
        zp.flat[i] += h
        zm.flat[i] -= h
        fd = (loss(zp) - loss(zm)) / (2 * h)
        assert z.grad.flat[i] == pytest.approx(fd, rel=1e-5)


def _mask_volume(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    meta = VolumeMeta(height=arr.shape[1], width=arr.shape[2], num_slices=arr.shape[0])
    return MaskVolume(meta=meta, voxels=arr)


def test_patient_dice_examples():
    gt = np.zeros((4, 8, 8), dtype=np.uint8)
    gt.ravel()[:100] = 1
    pred = np.zeros_like(gt)
    pred.ravel()[:90] = 1   # 90 hits
    pred.ravel()[100:110] = 1  # 10 false positives
    assert patient_dice(_mask_volume(pred), _mask_volume(gt)) == pytest.approx(0.9)
    assert patient_dice(_mask_volume(np.zeros_like(gt)), _mask_volume(gt)) == 0.0


def test_patient_dice_brute_force():
    for _ in range(20):
        pred = RNG.integers(0, 2, size=(4, 16, 16))
        gt = RNG.integers(0, 2, size=(4, 16, 16))
        assert patient_dice(_mask_volume(pred), _mask_volume(gt)) == pytest.approx(
            set_dice(pred, gt), abs=1e-12
        )


def test_patient_dice_dim_mismatch():
    a = _mask_volume(np.zeros((2, 4, 4)))
    b = _mask_volume(np.zeros((3, 4, 4)))
    with pytest.raises(DimensionMismatch):
        patient_dice(a, b)


def test_metrics_report_roundtrip():
    report = MetricsReport.from_patients(
        [
            PatientResult("p01", 0.9, 0.8, 64),
            PatientResult("p02", 0.7, 0.6, 64),
        ],
        seed=5,
        config_sha256="ab" * 32,
    )
    assert report.mean_dice == pytest.approx(0.8)
    assert report.mean_iou == pytest.approx(0.7)
    raw = json.loads(report.to_json())
    raw["per_patient"] = [PatientResult(**r) for r in raw["per_patient"]]
    assert MetricsReport(**raw) == report
