"""The loss in probability form, and overlap metrics.

The objective is binary cross-entropy plus a smoothed soft Jaccard term,
both averaged/summed over the whole batch at once. The functions here
take plain arrays of probabilities and return floats; training takes the
same loss on the head's logits, as one autodiff op
(autodiff.bcej_from_logits). The evaluation metrics are plain
set-cardinality Dice and IoU on binarized masks, with per-patient
aggregation done over the full 3-D volume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .volume_io import MaskVolume

PROB_CLAMP = 1e-7


def _prepare(p, y) -> tuple[np.ndarray, np.ndarray]:
    p, y = np.asarray(p, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeMismatch(f"prediction shape {p.shape} != target shape {y.shape}")
    return p, y


def bce_loss(p, y) -> float:
    """Mean binary cross-entropy, with p clamped to [1e-7, 1 - 1e-7]."""
    p, y = _prepare(p, y)
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


def soft_jaccard_loss(p, y, eps: float = 1.0) -> float:
    """1 - (sum(p*y) + eps) / (sum(p) + sum(y) - sum(p*y) + eps), whole batch."""
    p, y = _prepare(p, y)
    inter = np.sum(p * y)
    return float(1.0 - (inter + eps) / (np.sum(p) + np.sum(y) - inter + eps))


def bcej_loss(p, y, eps: float = 1.0) -> float:
    """Binary cross-entropy plus soft Jaccard, unit weights."""
    return bce_loss(p, y) + soft_jaccard_loss(p, y, eps=eps)


def binarize(p: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """1 where p >= threshold, else 0."""
    return (np.asarray(p) >= threshold).astype(np.uint8)


def _counts(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int, int]:
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    inter = int(np.logical_and(pred, gt).sum())
    return inter, int(pred.sum()), int(gt.sum())


def iou_metric(pred, gt) -> float:
    """|P & G| / |P | G|; both masks empty scores 1.0."""
    inter, np_, ng = _counts(pred, gt)
    union = np_ + ng - inter
    if union == 0:
        return 1.0
    return inter / union


def dice_metric(pred, gt) -> float:
    """2 |P & G| / (|P| + |G|); both masks empty scores 1.0."""
    inter, np_, ng = _counts(pred, gt)
    if np_ + ng == 0:
        return 1.0
    return 2.0 * inter / (np_ + ng)


def patient_dice(pred_volume: MaskVolume, gt_volume: MaskVolume) -> float:
    """Dice over every voxel of the 3-D stack at once (no per-slice averaging)."""
    if pred_volume.meta.shape != gt_volume.meta.shape:
        raise DimensionMismatch(
            f"volume dims differ: {pred_volume.meta.shape} vs {gt_volume.meta.shape}"
        )
    return dice_metric(pred_volume.voxels, gt_volume.voxels)


def patient_iou(pred_volume: MaskVolume, gt_volume: MaskVolume) -> float:
    if pred_volume.meta.shape != gt_volume.meta.shape:
        raise DimensionMismatch(
            f"volume dims differ: {pred_volume.meta.shape} vs {gt_volume.meta.shape}"
        )
    return iou_metric(pred_volume.voxels, gt_volume.voxels)


@dataclass
class PatientResult:
    patient_id: str
    dice: float
    iou: float
    n_slices: int


@dataclass
class MetricsReport:
    """Per-patient and aggregate Dice/IoU, serializable as JSON."""

    per_patient: list[PatientResult]
    mean_dice: float
    mean_iou: float
    seed: int
    config_sha256: str

    @classmethod
    def from_patients(
        cls, per_patient: list[PatientResult], seed: int, config_sha256: str
    ) -> "MetricsReport":
        n = len(per_patient)
        return cls(
            per_patient=per_patient,
            mean_dice=sum(p.dice for p in per_patient) / n if n else 0.0,
            mean_iou=sum(p.iou for p in per_patient) / n if n else 0.0,
            seed=seed,
            config_sha256=config_sha256,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def config_digest(config_dict: dict) -> str:
    """Stable sha256 of a JSON-serializable configuration."""
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
