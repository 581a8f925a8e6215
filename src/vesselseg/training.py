"""Optimization, fold construction, training/evaluation loops, grad checking.

Patients are (Volume, MaskVolume) pairs; training pools every slice of
every training patient, shuffles them with a seed-derived permutation per
epoch, and optimizes the BCE-plus-Jaccard objective, taken on the head's
H/2 logits, with bias-corrected Adam. Per-epoch losses and IoU go to a
RunLog; the checkpoint with the best validation IoU is the one returned.

Folds follow a fixed deterministic rule: patient ids are sorted, chunked
into excluded groups of the requested sizes, and within each group the
first val_per_fold ids validate while the rest test.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .checkpoint import Checkpoint, save_checkpoint
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyDataset,
    MetaParseError,
    NonFiniteGradient,
    ShapeMismatch,
    SizeMismatch,
)
from .losses import MetricsReport, PatientResult, binarize, iou_metric, patient_dice, patient_iou
from .losses import bcej_loss  # noqa: F401  perfbench wraps it here
from .model import ModelConfig, ParamStore, init_params, model_input, model_logits
from .model import model_forward  # noqa: F401  perfbench wraps it here
from .model import predict_probabilities, segment_volume
from .volume_io import DictConfig, HuWindow, MaskVolume, Volume, is_finite_number, is_int
from .volume_io import normalize_slice, to_model_input  # noqa: F401  perfbench wraps them here

Patient = tuple[Volume, MaskVolume]


@dataclass
class TrainConfig(DictConfig):
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    hu_window: HuWindow = field(default_factory=HuWindow)
    shuffle: bool = True
    checkpoint_every: int = 0  # epochs between periodic saves; 0 disables

    _error = ConfigInvalid

    def __post_init__(self):
        self._check_types()
        if self.learning_rate <= 0 or self.adam_eps <= 0:
            raise ConfigInvalid(f"learning_rate/adam_eps must be > 0, got {self.learning_rate}/{self.adam_eps}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigInvalid(f"beta1/beta2 must lie in [0, 1), got {self.beta1}/{self.beta2}")
        for name, least in (("batch_size", 1), ("epochs", 0), ("seed", 0), ("checkpoint_every", 0)):
            if getattr(self, name) < least:
                raise ConfigInvalid(f"{name} must be >= {least}, got {getattr(self, name)}")


# Elements per slice of one Adam update: the slice's four tensors plus
# scratch (6 x 128 KiB at float32) stay in L2 between its ufuncs.
ADAM_CHUNK = 1 << 15


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        return cls(
            m={n: np.zeros_like(params.data(n)) for n in params.trainable_names()},
            v={n: np.zeros_like(params.data(n)) for n in params.trainable_names()},
        )


def adam_step(
    params: ParamStore, grads: dict[str, np.ndarray], state: AdamState, cfg: TrainConfig
) -> tuple[ParamStore, AdamState]:
    """One bias-corrected Adam update in place; a bad gradient changes nothing.

    Every gradient is checked before any parameter moves. The update
    theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps) runs as in-place ufuncs,
    in the order that expression evaluates, over slices of ADAM_CHUNK
    elements of each (C-contiguous) tensor, with the two rows of one
    2 x ADAM_CHUNK scratch buffer as temporaries. A slice's gradient,
    moments, parameters and scratch stay in cache between ufuncs, no
    temporary is allocated per tensor, and each element sees the same
    operations as in the expression, so the result is bit-identical to it.
    """
    steps = [(n, grads[n]) for n in params.trainable_names() if grads.get(n) is not None]
    for name, g in steps:
        want = params.data(name).shape
        if g.shape != want:
            raise ShapeMismatch(f"gradient for {name} has shape {g.shape}, want {want}")
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    scratch = None
    for name, g in steps:
        if scratch is None or scratch.dtype != g.dtype:
            scratch = np.empty((2, ADAM_CHUNK), g.dtype)
        flat = [t.reshape(-1) for t in (g, params.data(name), state.m[name], state.v[name])]
        for start in range(0, g.size, ADAM_CHUNK):
            gc, theta, m, v = (t[start : start + ADAM_CHUNK] for t in flat)
            a, b = scratch[0, : gc.size], scratch[1, : gc.size]
            np.multiply(gc, 1.0 - b1, out=a)
            m *= b1
            m += a
            np.square(gc, out=a)
            a *= 1.0 - b2
            v *= b2
            v += a
            np.divide(m, bc1, out=a)
            a *= cfg.learning_rate
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += cfg.adam_eps
            a /= b
            theta -= a
    return params, state


# -- folds --------------------------------------------------------------------


@dataclass
class Fold:
    train_ids: list[str]
    val_ids: list[str]
    test_ids: list[str]


@dataclass
class FoldPlan:
    folds: list[Fold]

    def to_json(self) -> str:
        return json.dumps({"folds": [asdict(f) for f in self.folds]}, indent=2)


def make_folds(
    patient_ids: Sequence[str],
    fold_sizes: Sequence[int] = (3, 3, 3, 2),
    val_per_fold: int = 1,
) -> FoldPlan:
    """Chunk sorted ids into excluded groups; first of each group validates."""
    ids = sorted(patient_ids)
    if len(set(ids)) != len(ids):
        raise SizeMismatch("duplicate patient ids")
    if sum(fold_sizes) != len(ids):
        raise SizeMismatch(f"fold sizes {list(fold_sizes)} do not sum to {len(ids)} patients")
    if any(s < 1 for s in fold_sizes) or any(val_per_fold > s for s in fold_sizes):
        raise SizeMismatch(f"every fold needs >= {val_per_fold} excluded patients")
    folds = []
    start = 0
    for size in fold_sizes:
        excluded = ids[start : start + size]
        start += size
        folds.append(
            Fold(
                train_ids=[i for i in ids if i not in excluded],
                val_ids=excluded[:val_per_fold],
                test_ids=excluded[val_per_fold:],
            )
        )
    plan = FoldPlan(folds=folds)
    _assert_no_leakage(plan, ids)
    return plan


def _assert_no_leakage(plan: FoldPlan, all_ids: Sequence[str]) -> None:
    excluded_once: list[str] = []
    for fold in plan.folds:
        train, val, test = set(fold.train_ids), set(fold.val_ids), set(fold.test_ids)
        if train & val or train & test or val & test:
            raise SizeMismatch("train/val/test overlap within a fold")
        if train | val | test != set(all_ids):
            raise SizeMismatch("fold does not cover every patient")
        excluded_once.extend(fold.val_ids + fold.test_ids)
    if sorted(excluded_once) != sorted(all_ids):
        raise SizeMismatch("every patient must be excluded exactly once across folds")


# -- logs ----------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_iou: float
    val_iou: float | None


@dataclass
class RunLog:
    entries: list[EpochStats] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)  # first 16 steps
    wall_clock_sec: float = 0.0

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(e)) + "\n" for e in self.entries)


# -- dataset assembly -----------------------------------------------------------


def _check_patient_dims(patients: Sequence[Patient], input_hw: int) -> None:
    for vol, mask in patients:
        if vol.meta.shape != mask.meta.shape:
            raise DimensionMismatch(
                f"{vol.meta.patient_id}: volume {vol.meta.shape} vs mask {mask.meta.shape}"
            )
        if vol.meta.height != input_hw or vol.meta.width != input_hw:
            raise DimensionMismatch(
                f"{vol.meta.patient_id}: slices are {vol.meta.height}x{vol.meta.width}, "
                f"model wants {input_hw}x{input_hw}"
            )


def _pool_slices(patients: Sequence[Patient]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate every patient's slices: int16 HU and uint8 masks, (n, H, W)."""
    if not patients:
        raise EmptyDataset("no training slices")
    hu = np.concatenate([vol.voxels for vol, _ in patients])
    masks = np.concatenate([mask.voxels for _, mask in patients])
    return hu, masks


def build_slice_dataset(
    patients: Sequence[Patient], window: HuWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Pool every slice of every patient into (n, H, W, 3) / (n, H, W, 1) float32."""
    hu, masks = _pool_slices(patients)
    return model_input(hu, window), masks.astype(np.float32)[..., None]


def block_counts(masks: np.ndarray) -> np.ndarray:
    """Positives per 2 x 2 block of (n, H, W) masks, (n, H/2, W/2, 1) float32."""
    n, h, w = masks.shape
    return masks.reshape(n, h // 2, 2, w // 2, 2, 1).sum(axis=(2, 4), dtype=np.float32)


# -- training and evaluation -----------------------------------------------------


def train(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_patients: Sequence[Patient],
    val_patients: Sequence[Patient] = (),
    checkpoint_dir: str | Path | None = None,
) -> tuple[Checkpoint, RunLog]:
    """Optimize from scratch; returns the best-validation checkpoint and log.

    Without validation patients the final-epoch parameters are returned.
    Identical configs and seeds reproduce the run bit-for-bit.
    """
    started = time.time()
    _check_patient_dims(train_patients, model_cfg.input_hw)
    _check_patient_dims(val_patients, model_cfg.input_hw)

    params = init_params(model_cfg, train_cfg.seed)
    meta = {
        "seed": train_cfg.seed,
        "epoch": 0,
        "loss": None,
        "hu_window": train_cfg.hu_window.to_pair(),
        "train_config": train_cfg.to_dict(),
    }
    log = RunLog()
    if train_cfg.epochs == 0:
        log.wall_clock_sec = time.time() - started
        return Checkpoint(config=model_cfg, params=params, meta=meta), log

    hu, masks = _pool_slices(train_patients)
    val_hu, val_masks = _pool_slices(val_patients) if val_patients else (None, None)
    pred = np.zeros_like(masks)  # this epoch's binarized train predictions

    state = AdamState.for_params(params)
    rng = np.random.default_rng(train_cfg.seed)
    best_val = -1.0
    best_params: ParamStore | None = None
    best_epoch = 0

    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(hu)) if train_cfg.shuffle else np.arange(len(hu))
        losses = []
        for start in range(0, len(order), train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            params.zero_grad()
            logits = model_logits(model_input(hu[idx], train_cfg.hu_window), params, mode="train")
            loss = ad.bcej_from_logits(logits, block_counts(masks[idx]))
            loss.backward()
            grads = {n: params[n].grad for n in params.trainable_names() if params[n].grad is not None}
            adam_step(params, grads, state, train_cfg)
            losses.append(loss.item())
            if len(log.step_losses) < 16:
                log.step_losses.append(loss.item())
            # p >= 0.5 exactly where the logit is >= 0; each logit covers a 2 x 2 block
            pred[idx] = (logits.data[..., 0] >= 0).repeat(2, axis=1).repeat(2, axis=2)
            del logits, loss, grads  # free this step's graph before the next forward

        val_iou = None
        if val_hu is not None:
            val_probs = predict_probabilities(params, val_hu, train_cfg.hu_window, train_cfg.batch_size)
            val_iou = iou_metric(binarize(val_probs), val_masks)
            if val_iou > best_val:
                best_val = val_iou
                best_params = params.copy()
                best_epoch = epoch
        log.entries.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                train_iou=iou_metric(pred, masks),
                val_iou=val_iou,
            )
        )
        if checkpoint_dir and train_cfg.checkpoint_every and (epoch + 1) % train_cfg.checkpoint_every == 0:
            snap_meta = dict(meta, epoch=epoch, loss=log.entries[-1].train_loss)
            save_checkpoint(
                Checkpoint(model_cfg, params, snap_meta),
                Path(checkpoint_dir) / f"epoch_{epoch:04d}.ckpt",
            )

    if best_params is None:
        best_params, best_epoch = params, train_cfg.epochs - 1
    meta.update(
        epoch=best_epoch,
        loss=log.entries[best_epoch].train_loss,
        best_val_iou=None if best_val < 0 else best_val,
    )
    log.wall_clock_sec = time.time() - started
    return Checkpoint(config=model_cfg, params=best_params, meta=meta), log


def evaluate(ckpt: Checkpoint, patients: Sequence[Patient]) -> MetricsReport:
    """Segment each patient volume, with the HU window the checkpoint was
    trained with, and score 3-D Dice/IoU against truth."""
    window, seed = checkpoint_window(ckpt), checkpoint_seed(ckpt)
    _check_patient_dims(patients, ckpt.config.input_hw)
    results = []
    for vol, mask in patients:
        pred = segment_volume(ckpt.params, vol, window)
        results.append(
            PatientResult(
                patient_id=vol.meta.patient_id,
                dice=patient_dice(pred, mask),
                iou=patient_iou(pred, mask),
                n_slices=vol.meta.num_slices,
            )
        )
    return MetricsReport.from_patients(results, seed=seed, config_sha256=ckpt.config.digest())


def checkpoint_window(ckpt: Checkpoint) -> HuWindow:
    """The HU window recorded in the checkpoint's metadata, or the default."""
    return HuWindow.from_pair(ckpt.meta.get("hu_window", HuWindow().to_pair()))


def checkpoint_seed(ckpt: Checkpoint) -> int:
    """The training seed recorded in the checkpoint's metadata, or 0."""
    seed = ckpt.meta.get("seed", 0)
    if not (is_int(seed) and seed >= 0):
        raise MetaParseError(f"checkpoint meta seed must be an int >= 0, got {seed!r}")
    return int(seed)


@dataclass
class CrossValidationResult:
    fold_reports: list[MetricsReport]
    plan: FoldPlan
    mean_dice: float
    mean_iou: float


def cross_validate(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    patients: Sequence[Patient],
    fold_sizes: Sequence[int] = (3, 3, 3, 2),
    val_per_fold: int = 1,
) -> CrossValidationResult:
    """Patient-level k-fold: train on the kept patients, test on the excluded."""
    by_id = {vol.meta.patient_id: (vol, mask) for vol, mask in patients}
    if len(by_id) != len(patients):
        raise SizeMismatch("patient ids must be unique")
    _check_patient_dims(patients, model_cfg.input_hw)
    plan = make_folds(sorted(by_id), fold_sizes=fold_sizes, val_per_fold=val_per_fold)
    reports = []
    for fold in plan.folds:
        ckpt, _ = train(
            model_cfg,
            train_cfg,
            [by_id[i] for i in fold.train_ids],
            [by_id[i] for i in fold.val_ids],
        )
        reports.append(evaluate(ckpt, [by_id[i] for i in fold.test_ids]))
    return CrossValidationResult(
        fold_reports=reports,
        plan=plan,
        mean_dice=float(np.mean([r.mean_dice for r in reports])),
        mean_iou=float(np.mean([r.mean_iou for r in reports])),
    )


# -- gradient checking -------------------------------------------------------------


# Candidate finite-difference steps, ordered by how often they win. Small
# steps suit normalization affines (perturbing whole channels crosses ReLU
# boundaries, an error linear in the step); large steps suit parameters
# with near-zero gradients, where the 1e-6 floor in the error formula
# amplifies float64 evaluation noise (which shrinks as 1/step).
_FD_STEPS = (2e-5, 2e-6, 2e-7, 2e-4, 2e-3)
_FD_EARLY_EXIT = 5e-5


def grad_check(
    model_cfg: ModelConfig,
    seed: int = 0,
    n_samples: int = 100,
    tol: float = 1e-4,
    corrupt: str | None = None,
) -> dict:
    """Compare analytic BCEJ gradients against central finite differences.

    The whole network runs in float64 on random inputs. Scalar parameters
    are sampled to span the encoder, bridge attention, positional
    embeddings, decoder and head; each is perturbed with an adaptive
    central-difference step (best agreement over a fixed step ladder),
    since no single step serves both channel-wide affine parameters and
    near-zero-gradient weights.

    The loss is the training one, bcej_from_logits on the head's logits.
    The checked forward runs in eval mode, because train-mode batch
    statistics couple every activation to every parameter, which makes
    the loss too sharply curved for finite differences at any usable
    step; one warm-up pass first gives the running statistics the scale
    of the checked input. The train-mode normalization backward is
    covered by dedicated op-level tests instead.

    corrupt names a parameter whose analytic gradient is doubled, as a
    self-test that the checker catches wrong gradients.
    """
    if not (is_int(n_samples) and n_samples >= 1):
        raise ConfigInvalid(f"n_samples must be an int >= 1, got {n_samples!r}")
    if not (is_finite_number(tol) and tol > 0):
        raise ConfigInvalid(f"tol must be a finite number > 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    params = init_params(model_cfg, seed, dtype=np.float64)
    hw = model_cfg.input_hw
    x = rng.uniform(0.0, 1.0, size=(2, hw, hw, 3))
    k = block_counts((rng.uniform(size=(2, hw, hw)) < 0.3).astype(np.uint8))

    with ad.no_grad():
        model_logits(x, params, mode="train")  # warm running statistics

    def loss() -> ad.Tensor:
        return ad.bcej_from_logits(model_logits(x, params, mode="eval"), k)

    def loss_value() -> float:
        with ad.no_grad():
            return loss().item()

    params.zero_grad()
    loss().backward()
    grads = {}
    for name in params.trainable_names():
        g = params[name].grad
        if g is None:
            g = np.zeros_like(params.data(name))
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"non-finite analytic gradient in {name}")
        grads[name] = np.array(g, dtype=np.float64)
    if corrupt is not None:
        grads[corrupt] = grads[corrupt] * 2.0

    groups = {
        "encoder": [n for n in grads if n.startswith("encoder.")],
        "bridge_attention": [n for n in grads if ".attn." in n],
        "bridge_pos_embed": [n for n in grads if n == "bridge.pos_embed"],
        "bridge_other": [
            n for n in grads if n.startswith("bridge.") and ".attn." not in n and n != "bridge.pos_embed"
        ],
        "decoder": [n for n in grads if n.startswith("decoder.")],
        "head": [n for n in grads if n.startswith("head.")],
    }
    # Below 12 samples, one pick per group in group order, cut to n_samples.
    per_group = max(2, n_samples // 12) if n_samples >= 12 else 1
    picks: list[tuple[str, int]] = []
    for names in groups.values():
        if not names:
            continue
        for _ in range(per_group):
            name = names[int(rng.integers(len(names)))]
            picks.append((name, int(rng.integers(params.data(name).size))))
    del picks[n_samples:]
    all_names = list(grads)
    while len(picks) < n_samples:
        name = all_names[int(rng.integers(len(all_names)))]
        picks.append((name, int(rng.integers(params.data(name).size))))
    if corrupt is not None:
        picks[0] = (corrupt, int(np.argmax(np.abs(grads[corrupt]))))

    max_rel = 0.0
    worst = ""
    samples = []
    for name, flat_idx in picks:
        theta = params.data(name)
        original = theta.flat[flat_idx]
        analytic = grads[name].flat[flat_idx]
        best_rel = np.inf
        best_fd = 0.0
        for h in _FD_STEPS:
            theta.flat[flat_idx] = original + h
            plus = loss_value()
            theta.flat[flat_idx] = original - h
            minus = loss_value()
            theta.flat[flat_idx] = original
            fd = (plus - minus) / (2.0 * h)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            if rel < best_rel:
                best_rel, best_fd = rel, fd
            if best_rel <= _FD_EARLY_EXIT:
                break
        samples.append({"param": name, "index": flat_idx, "rel_err": best_rel, "fd": best_fd})
        if best_rel > max_rel:
            max_rel, worst = best_rel, f"{name}[{flat_idx}]"
    return {
        "max_rel_err": max_rel,
        "pass": bool(max_rel <= tol),
        "tol": tol,
        "worst_param": worst,
        "n_samples": len(picks),
        "group_counts": {
            g: sum(1 for n, _ in picks if n in members)
            for g, members in ((g, set(ns)) for g, ns in groups.items())
        },
        "samples": samples,
    }
