"""Adam, fold protocol, training determinism, evaluation, gradient check."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import vesselseg
from vesselseg.autodiff import Tensor
from vesselseg.errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyDataset,
    NonFiniteGradient,
    ShapeMismatch,
    SizeMismatch,
)
from vesselseg.model import ModelConfig, ParamStore, init_params, scaled_config, tiny_config
from vesselseg.phantom import PhantomSpec, generate
from vesselseg.training import (
    ADAM_CHUNK,
    AdamState,
    Fold,
    FoldPlan,
    TrainConfig,
    adam_step,
    build_slice_dataset,
    cross_validate,
    evaluate,
    grad_check,
    make_folds,
    train,
)
from vesselseg import training as training_mod
from vesselseg.volume_io import HuWindow


def micro_cfg(hw=32):
    return scaled_config(hw, width_divisor=8, bridge_layers=1, d_model=32, num_heads=2)


def _single_param_store(theta):
    cfg = tiny_config()
    store = ParamStore(
        cfg,
        {"w": Tensor(np.array(theta, dtype=np.float64), requires_grad=True)},
    )
    return store


def test_adam_first_step_analytic():
    store = _single_param_store([0.0])
    state = AdamState.for_params(store)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1)
    adam_step(store, {"w": np.array([1.0])}, state, cfg)
    expected = -1e-3 * (1.0 / (1.0 + 1e-8))
    assert store.data("w")[0] == pytest.approx(expected, abs=1e-15)
    assert state.t == 1


def test_adam_zero_gradient_no_motion():
    store = _single_param_store([2.5])
    state = AdamState.for_params(store)
    adam_step(store, {"w": np.array([0.0])}, state, TrainConfig(epochs=1))
    assert store.data("w")[0] == 2.5


def test_adam_monotone_under_constant_gradient():
    store = _single_param_store([0.0])
    state = AdamState.for_params(store)
    cfg = TrainConfig(learning_rate=1e-2, epochs=1)
    values = []
    for _ in range(5):
        adam_step(store, {"w": np.array([3.0])}, state, cfg)
        values.append(store.data("w")[0])
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] < 0


def test_adam_error_paths():
    store = _single_param_store([0.0])
    state = AdamState.for_params(store)
    with pytest.raises(NonFiniteGradient):
        adam_step(store, {"w": np.array([np.nan])}, state, TrainConfig(epochs=1))
    with pytest.raises(ShapeMismatch):
        adam_step(store, {"w": np.zeros(2)}, state, TrainConfig(epochs=1))


@pytest.mark.parametrize("fault", ["nan", "shape"])
def test_adam_bad_last_gradient_changes_nothing(fault):
    params = init_params(tiny_config(), 0)
    state = AdamState.for_params(params)
    cfg = TrainConfig(learning_rate=1e-2, epochs=1)
    rng = np.random.default_rng(3)
    grads = {n: rng.normal(size=params.data(n).shape).astype(np.float32) for n in params.trainable_names()}
    adam_step(params, grads, state, cfg)
    before = params.copy()
    m, v, t = {n: a.copy() for n, a in state.m.items()}, {n: a.copy() for n, a in state.v.items()}, state.t

    last = params.trainable_names()[-1]
    if fault == "nan":
        grads[last].flat[-1] = np.nan
    else:
        grads[last] = np.zeros(grads[last].size + 1, dtype=np.float32)
    with pytest.raises(NonFiniteGradient if fault == "nan" else ShapeMismatch):
        adam_step(params, grads, state, cfg)
    assert state.t == t
    for name in params.names():
        assert np.array_equal(params.data(name), before.data(name)), name
    for name in m:
        assert np.array_equal(state.m[name], m[name]) and np.array_equal(state.v[name], v[name]), name


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(checkpoint_every=-1)


def test_train_config_dict_is_unchanged():
    assert list(TrainConfig().to_dict().items()) == [
        ("learning_rate", 1e-4),
        ("beta1", 0.9),
        ("beta2", 0.999),
        ("adam_eps", 1e-8),
        ("batch_size", 8),
        ("epochs", 10),
        ("seed", 0),
        ("hu_window", [-100.0, 900.0]),
        ("shuffle", True),
        ("checkpoint_every", 0),
    ]
    assert TrainConfig.from_dict(TrainConfig(seed=3).to_dict()) == TrainConfig(seed=3)


def test_make_folds_protocol():
    ids = [f"p{i:02d}" for i in range(1, 12)]
    plan = make_folds(ids)
    assert [len(f.val_ids) + len(f.test_ids) for f in plan.folds] == [3, 3, 3, 2]
    excluded = [i for f in plan.folds for i in f.val_ids + f.test_ids]
    assert sorted(excluded) == sorted(ids)

    fold1 = plan.folds[0]
    assert fold1.val_ids == ["p01"]
    assert fold1.test_ids == ["p02", "p03"]
    assert fold1.train_ids == [f"p{i:02d}" for i in range(4, 12)]

    for fold in plan.folds:
        assert not set(fold.train_ids) & set(fold.val_ids + fold.test_ids)
        assert set(fold.train_ids) | set(fold.val_ids) | set(fold.test_ids) == set(ids)


def test_make_folds_errors():
    with pytest.raises(SizeMismatch):
        make_folds(["a", "b", "c"], fold_sizes=(2, 2))
    with pytest.raises(SizeMismatch):
        make_folds(["a", "a", "b"], fold_sizes=(2, 1))
    with pytest.raises(SizeMismatch):
        make_folds(["a", "b"], fold_sizes=(1, 1), val_per_fold=2)


def test_fold_plan_json_roundtrip():
    plan = make_folds([f"p{i}" for i in range(6)], fold_sizes=(2, 2, 2))
    again = FoldPlan(folds=[Fold(**f) for f in json.loads(plan.to_json())["folds"]])
    assert again == plan


def _micro_patients(n, slices=4, hw=32, **kw):
    out = []
    for i in range(n):
        spec = PhantomSpec(
            dims=(slices, hw, hw),
            seed=50 + i,
            trunk_radius_px=7.0,
            bifurcation_z=slices - 1,
            patient_id=f"m{i:02d}",
            **kw,
        )
        out.append(generate(spec))
    return out


def test_build_slice_dataset():
    patients = _micro_patients(2)
    x, y = build_slice_dataset(patients, HuWindow())
    assert x.shape == (8, 32, 32, 3)
    assert y.shape == (8, 32, 32, 1)
    assert x.dtype == np.float32
    with pytest.raises(EmptyDataset):
        build_slice_dataset([], HuWindow())


def test_train_zero_epochs_returns_init():
    patients = _micro_patients(1)
    cfg = micro_cfg()
    tc = TrainConfig(epochs=0, seed=4)
    ckpt, log = train(cfg, tc, patients)
    fresh = init_params(cfg, 4)
    for name in fresh.names():
        assert np.array_equal(ckpt.params.data(name), fresh.data(name))
    assert log.entries == [] and log.step_losses == []


def test_train_determinism_first_steps():
    patients = _micro_patients(2)
    cfg = micro_cfg()
    tc = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=2, seed=11)
    _, log1 = train(cfg, tc, patients)
    _, log2 = train(cfg, tc, patients)
    assert log1.step_losses[:5] == log2.step_losses[:5]
    assert [e.train_loss for e in log1.entries] == [e.train_loss for e in log2.entries]


def test_train_frees_each_step_graph_before_the_next_forward(monkeypatch):
    """Only one step's graph is alive at a time: the previous step's output
    is gone by the time the next forward starts."""
    forward = training_mod.model_logits
    outputs, alive_at_start = [], []

    def recording_forward(x, ps, mode="eval"):
        alive_at_start.append(sum(ref() is not None for ref in outputs))
        out = forward(x, ps, mode=mode)
        outputs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(training_mod, "model_logits", recording_forward)
    train(tiny_config(), TrainConfig(batch_size=2, epochs=1, seed=5), _micro_patients(2))
    assert len(outputs) == 4
    assert alive_at_start == [0, 0, 0, 0]


def test_train_rejects_wrong_dims():
    patients = _micro_patients(1, hw=64)
    with pytest.raises(DimensionMismatch):
        train(micro_cfg(hw=32), TrainConfig(epochs=1), patients)


def test_train_tracks_best_validation(tmp_path):
    patients = _micro_patients(3)
    cfg = micro_cfg()
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=0, checkpoint_every=1)
    ckpt, log = train(cfg, tc, patients[:2], val_patients=patients[2:], checkpoint_dir=tmp_path)
    assert all(e.val_iou is not None for e in log.entries)
    assert ckpt.meta["best_val_iou"] == max(e.val_iou for e in log.entries)
    assert (tmp_path / "epoch_0000.ckpt").is_file()
    assert (tmp_path / "epoch_0001.ckpt").is_file()


def test_checkpoint_meta_pairs_the_best_epoch_with_its_own_loss(monkeypatch):
    """Validation after the first epoch predicts nothing, so epoch 0 stays the
    best; the checkpoint's loss is epoch 0's, not the last epoch's."""
    predict = training_mod.predict_probabilities
    calls = []

    def first_epoch_only(*args):
        calls.append(None)
        probs = predict(*args)
        return probs if len(calls) == 1 else np.zeros_like(probs)

    monkeypatch.setattr(training_mod, "predict_probabilities", first_epoch_only)
    patients = _micro_patients(2)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3, seed=0)
    ckpt, log = train(tiny_config(), tc, patients[:1], val_patients=patients[1:])
    assert ckpt.meta["epoch"] == 0
    assert ckpt.meta["loss"] == log.entries[ckpt.meta["epoch"]].train_loss
    assert log.entries[0].train_loss != log.entries[-1].train_loss


def test_evaluate_with_oracle_stub(monkeypatch):
    patients = _micro_patients(3)
    monkeypatch.setattr(training_mod, "segment_volume", lambda ps, vol, win, threshold=0.5: _gt(vol, patients))
    ckpt, _ = train(micro_cfg(), TrainConfig(epochs=0, seed=1), patients)
    report = evaluate(ckpt, patients)
    assert len(report.per_patient) == 3
    assert report.mean_dice == 1.0
    assert report.mean_iou == 1.0
    assert report.mean_dice == pytest.approx(np.mean([p.dice for p in report.per_patient]))
    assert [p.n_slices for p in report.per_patient] == [4, 4, 4]


def _gt(vol, patients):
    for v, m in patients:
        if v is vol:
            return m
    raise AssertionError("unknown volume")


def test_cross_validate_micro():
    patients = _micro_patients(6)
    cfg = micro_cfg()
    tc = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=1, seed=0)
    result = cross_validate(cfg, tc, patients, fold_sizes=(2, 2, 2))
    assert len(result.fold_reports) == 3
    ids = {f"m{i:02d}" for i in range(6)}
    for fold, report in zip(result.plan.folds, result.fold_reports):
        tested = {p.patient_id for p in report.per_patient}
        assert tested == set(fold.test_ids)
        assert not tested & set(fold.train_ids)
        assert set(fold.train_ids) | set(fold.val_ids) | set(fold.test_ids) == ids
    assert result.mean_dice == pytest.approx(np.mean([r.mean_dice for r in result.fold_reports]))


def test_grad_check_passes_and_reports():
    report = grad_check(tiny_config(), seed=0, n_samples=40, tol=1e-4)
    assert report["pass"], report
    assert report["max_rel_err"] <= 1e-4
    assert report["worst_param"]
    assert report["n_samples"] >= 40


@pytest.mark.parametrize("n_samples, tol, name", [
    (0, 1e-4, "n_samples"), (-3, 1e-4, "n_samples"), (2.0, 1e-4, "n_samples"), (True, 1e-4, "n_samples"),
    (12, 0.0, "tol"), (12, -1.0, "tol"), (12, float("nan"), "tol"), (12, float("inf"), "tol"), (12, "1e-4", "tol"),
])
def test_grad_check_rejects_bad_counts_and_tolerances_before_a_forward(monkeypatch, n_samples, tol, name):
    def forward(*args, **kwargs):
        raise AssertionError("grad_check ran the network")

    monkeypatch.setattr(training_mod, "model_logits", forward)
    with pytest.raises(ConfigInvalid, match=name):
        grad_check(tiny_config(), n_samples=n_samples, tol=tol)


def test_grad_check_negative_control():
    report = grad_check(
        tiny_config(), seed=0, n_samples=16, tol=1e-4, corrupt="encoder.stem.conv.weight"
    )
    assert not report["pass"]
    assert report["max_rel_err"] > 0.3


_TRAIN_STEP_512 = """
import resource, sys
import numpy as np
from vesselseg.autodiff import bcej_from_logits
from vesselseg.model import ModelConfig, init_params, model_logits
from vesselseg.training import AdamState, TrainConfig, adam_step, block_counts

params = init_params(ModelConfig(), seed=0)
state = AdamState.for_params(params)
rng = np.random.default_rng(0)
x = rng.uniform(size=(1, 512, 512, 3)).astype(np.float32)
y = (rng.uniform(size=(1, 512, 512)) < 0.1).astype(np.uint8)
loss = bcej_from_logits(model_logits(x, params, mode="train"), block_counts(y))
loss.backward()
adam_step(params, {n: params[n].grad for n in params.trainable_names()}, state, TrainConfig())
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
print(peak / (1024 * 1024 if sys.platform == "darwin" else 1024))
"""


def test_full_width_512_train_step_peaks_under_900_mib():
    """One paper-size step (35.1 M params, batch 1) in a fresh process peaks
    under 900 MiB: the graph keeps no activation that no vjp reads."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRAIN_STEP_512], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    peak_mib = float(proc.stdout.split()[-1])
    assert peak_mib < 900, f"peak RSS {peak_mib:.0f} MiB"


_EVAL_VOLUME_64 = """
import time
import numpy as np
from vesselseg.checkpoint import Checkpoint
from vesselseg.model import init_params, scaled_config
from vesselseg.phantom import PhantomSpec, generate
from vesselseg.training import evaluate

cfg = scaled_config(64, width_divisor=4, bridge_layers=4, d_model=128, num_heads=8)
ckpt = Checkpoint(config=cfg, params=init_params(cfg, seed=0))
patient = generate(PhantomSpec(dims=(64, 64, 64), seed=0))
times = []
for _ in range(6):  # the first call warms up
    start = time.perf_counter()
    report = evaluate(ckpt, [patient])
    times.append(time.perf_counter() - start)
if not 0.0 <= report.mean_dice <= 1.0:
    raise SystemExit(f"bad report {report}")
print(float(np.median(times[1:])))  # seconds per 64-slice volume
"""


def test_study_model_eval_of_a_64_slice_volume_runs_in_a_fresh_process():
    """evaluate() of one 64-slice 64^2 volume with the study model, as CI
    times it: a finite Dice and a positive median time."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _EVAL_VOLUME_64], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert float(proc.stdout.split()[-1]) > 0


def _adam_reference(theta, m, v, g, t, cfg):
    """One Adam update written as the expression adam_step evaluates in place."""
    b1, b2 = cfg.beta1, cfg.beta2
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    theta -= cfg.learning_rate * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + cfg.adam_eps)


def _assert_adam_matches_the_expression(store, grads_at, steps, cfg):
    """adam_step on store for steps steps, grads_at(t) the gradients of step t,
    against _adam_reference on copies: parameters and both moments bitwise."""
    names = store.trainable_names()
    want = {n: store.data(n).copy() for n in names}
    moments = {n: (np.zeros_like(want[n]), np.zeros_like(want[n])) for n in names}
    state = AdamState.for_params(store)
    for t in range(1, steps + 1):
        grads = grads_at(t)
        adam_step(store, grads, state, cfg)
        for n, g in grads.items():
            _adam_reference(want[n], *moments[n], g, t, cfg)
        for n in names:
            assert store.data(n).tobytes() == want[n].tobytes(), (t, n)
            assert state.m[n].tobytes() == moments[n][0].tobytes(), (t, n)
            assert state.v[n].tobytes() == moments[n][1].tobytes(), (t, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_in_scratch_is_bit_identical_to_the_expression(dtype):
    rng = np.random.default_rng(8)
    shapes = {"a": (3, 4), "b": (17,), "c": (2, 3, 3, 3), "d": ()}
    store = ParamStore(tiny_config(), {n: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                                       for n, s in shapes.items()})

    def grads_at(t):
        grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        if t == 3:
            del grads["c"]  # a parameter without a gradient keeps its moments
        return grads

    _assert_adam_matches_the_expression(store, grads_at, 5, TrainConfig(learning_rate=3e-3))


@pytest.mark.parametrize("size", [ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_at_chunk_boundaries_is_bit_identical_to_the_expression(size, dtype):
    """Tensors just under, at and just over one chunk, flat and 4-d, next to
    a tensor of several chunks: the last, partial chunk included."""
    rng = np.random.default_rng([size, np.dtype(dtype).itemsize])
    shapes = {"flat": (size,), "conv": (size, 1, 1, 1), "several": (3 * ADAM_CHUNK + 5,), "small": (7,)}
    store = ParamStore(tiny_config(), {n: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                                       for n, s in shapes.items()})

    def grads_at(t):
        return {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}

    _assert_adam_matches_the_expression(store, grads_at, 3, TrainConfig(learning_rate=3e-3))


def test_adam_step_on_the_full_width_store_is_bit_identical_to_the_expression():
    """Two steps on the paper-width store (35.1 M float32 parameters). The
    gradients are windows of one noise buffer, so they take no store-sized
    memory of their own."""
    store = init_params(ModelConfig(), seed=0)
    names = store.trainable_names()
    noise = np.random.default_rng(12).standard_normal(
        max(store.data(n).size for n in names) + len(names) + 2, dtype=np.float32
    )

    def grads_at(t):
        shapes = {n: store.data(n).shape for n in names}
        return {n: noise[i + t : i + t + int(np.prod(s))].reshape(s) for i, (n, s) in enumerate(shapes.items())}

    _assert_adam_matches_the_expression(store, grads_at, 2, TrainConfig())


_ADAM_STEP_512 = """
import time
import numpy as np
from vesselseg.model import ModelConfig, init_params
from vesselseg.training import AdamState, TrainConfig, adam_step

params = init_params(ModelConfig(), seed=0)  # the paper-width store, 35.1 M parameters
state = AdamState.for_params(params)
rng = np.random.default_rng(0)
grads = {n: rng.standard_normal(params.data(n).shape, dtype=np.float32) for n in params.trainable_names()}
times = []
for _ in range(6):  # the first call warms up
    start = time.perf_counter()
    adam_step(params, grads, state, TrainConfig())
    times.append(time.perf_counter() - start)
if not all(np.isfinite(params.data(n)).all() for n in params.trainable_names()):
    raise SystemExit("non-finite parameters")
print(float(np.median(times[1:])))  # seconds per adam_step
"""


def test_full_width_adam_step_runs_in_a_fresh_process():
    """adam_step on the paper-width store, as CI times it: finite parameters
    and a positive median time."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselseg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _ADAM_STEP_512], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert float(proc.stdout.split()[-1]) > 0


def test_a_study_train_step_looks_up_blas_gemm_once_per_dtype(monkeypatch):
    """autodiff._gemm caches scipy's gemm per dtype: the hundreds of GEMM calls
    of one train() step of the study model (64^2, batch 8) make at most one
    get_blas_funcs lookup for each dtype."""
    lookups = []
    real = vesselseg.autodiff.get_blas_funcs

    def counting(names, *args, dtype=None, **kwargs):
        lookups.append(np.dtype(dtype))
        return real(names, *args, dtype=dtype, **kwargs)

    monkeypatch.setattr(vesselseg.autodiff, "get_blas_funcs", counting)
    monkeypatch.setattr(vesselseg.autodiff, "_GEMMS", {})
    cfg = scaled_config(64, width_divisor=4, bridge_layers=4, d_model=128, num_heads=8)
    patient = generate(PhantomSpec(dims=(8, 64, 64), seed=3))
    train(cfg, TrainConfig(epochs=1, batch_size=8, seed=0), [patient])
    assert lookups and len(lookups) == len(set(lookups)), lookups


def test_train_step_and_eval_forward_make_no_numpy_gemm(monkeypatch):
    """Every matrix product runs through scipy's BLAS (autodiff._gemm): numpy
    and scipy each bundle an OpenBLAS with its own thread pool."""

    def numpy_gemm(*args, **kwargs):
        raise AssertionError("numpy GEMM call")

    for name in ("matmul", "dot", "tensordot", "einsum", "inner", "vdot"):
        monkeypatch.setattr(np, name, numpy_gemm)
    params = init_params(tiny_config(), seed=2)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(2, 32, 32, 3)).astype(np.float32)
    k = training_mod.block_counts((rng.uniform(size=(2, 32, 32)) < 0.3).astype(np.uint8))
    loss = vesselseg.autodiff.bcej_from_logits(training_mod.model_logits(x, params, mode="train"), k)
    loss.backward()
    adam_step(params, {n: params[n].grad for n in params.trainable_names()}, state, TrainConfig())
    with vesselseg.autodiff.no_grad():
        probs = training_mod.model_forward(x, params, mode="eval").data
    assert probs.shape == (2, 32, 32, 1) and np.isfinite(loss.item())
