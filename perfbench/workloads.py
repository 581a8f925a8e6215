"""The benchmark workloads and the correctness gate around them.

Each workload drives vesselseg through the calls its CLI makes:
``phantom.generate``, ``volume_io`` save/load, ``training.train``,
``checkpoint.save_checkpoint`` / ``load_checkpoint``, ``training.evaluate``
(which runs ``model.segment_volume``) and ``tracker.track_volume``. All
inputs are phantoms generated from the workload seed.

A run is: set-up (repeated, median reported), the workload's opening
calls, then a closed loop of its cycle of calls until --seconds have
passed since the opening (a fixed number of cycles when traced), the read
of peak RSS, a reference check on a fixed check seed, and the machine
block. Every workload makes all three kinds of timed call, because every
run reports every end-to-end metric; the cycle interleaves them so that
the samples of each kind span the run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vesselseg import autodiff, checkpoint, model, phantom, tracker, training, volume_io
from vesselseg.phantom import BoneDecoy, PhantomSpec
from vesselseg.volume_io import HuWindow, MaskVolume, Volume, VolumeMeta

from machine import SliceKernel, machine_block
from layertrace import Patches, Tracer, rss_mib

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
CHECK_SEED = 7
# Fixed before the reference was recorded: float32 forward passes that sum
# in another order agree far inside these; a real change to an op does not.
PROB_ATOL = 1e-4
LOSS_RTOL = 1e-3
TRACK_WINDOW = (200.0, 500.0)

# the criterion-7 study model: 64 x 64, widths/4, 4 bridge layers, d_model 128
STUDY_MODEL = model.scaled_config(64, width_divisor=4, bridge_layers=4, d_model=128, num_heads=8)


def phantom_spec(hw: int, nz: int, i: int, noise_seed: int, late: bool = False) -> PhantomSpec:
    """The study recipe (full variant: occlusion plus two bone decoys),
    scaled from 64 x 64 x 64 to nz slices of hw x hw; geometry varies with i.

    late moves the occlusion past the bifurcation, so a tracker walks most
    of the stack before it loses the vessel.
    """
    s, zs = hw / 64.0, nz / 64.0
    corners = [(12.0, 12.0), (52.0, 12.0), (12.0, 52.0), (52.0, 52.0)]
    a, b = corners[i % 4], corners[(i + 2) % 4]
    ja, jb = (i * 5) % 7 - 3, (i * 3) % 7 - 3
    jitter = ((i * 7) % 5 - 2, (i * 3) % 5 - 2)
    occ0 = (44 if late else 14) + (i % 4) * 2
    occ_len = 6 if late else 8

    def z(v):
        return min(nz, int(round(v * zs)))

    decoys = [
        BoneDecoy((s * (a[0] + ja), s * (a[1] + jb)), s * (4.0 + i % 5), (z(4 + (i * 3) % 12), z(44 + (i * 5) % 20))),
        BoneDecoy((s * (b[0] + jb), s * (b[1] + ja)), s * (3.0 + (i + 2) % 4), (z(10 + (i * 2) % 10), z(60 - (i * 2) % 8))),
    ]
    return PhantomSpec(
        dims=(nz, hw, hw),
        seed=noise_seed,
        entry_xy=(s * (32.0 + jitter[0]), s * (32.0 + jitter[1])),
        trunk_radius_px=s * (9.0 + i % 3),
        branch_radius_px=s * 3.0,
        bifurcation_z=z(28 + (i % 5) * 2),
        branch_half_angle_deg=12.0 + (i % 4) * 2.0,
        occlusion_z_range=(z(occ0), z(occ0 + occ_len)),
        bone_decoys=decoys,
        patient_id=f"p{i:04d}",
    )


def sub_volume(vol: Volume, mask: MaskVolume, z0: int, z1: int, pid: str):
    meta = VolumeMeta(vol.meta.height, vol.meta.width, z1 - z0, vol.meta.spacing_mm, pid)
    return Volume(meta, vol.voxels[z0:z1]), MaskVolume(meta, mask.voxels[z0:z1])


@dataclass(frozen=True)
class Canary:
    """Reference check on the check seed, at a size that takes seconds."""

    model: model.ModelConfig
    nz: int
    batch: int
    learning_rate: float
    train_slices: int


CANARIES = {
    "study": Canary(STUDY_MODEL, nz=16, batch=8, learning_rate=1e-3, train_slices=16),
    # the paper-width network at 64 x 64: same layers and widths, 4 tokens
    "paper": Canary(model.scaled_config(64), nz=16, batch=1, learning_rate=1e-4, train_slices=2),
    "tiny": Canary(model.tiny_config(), nz=8, batch=4, learning_rate=1e-3, train_slices=8),
}


@dataclass(frozen=True)
class Plan:
    """What one workload runs; see README.md for why each exists."""

    name: str
    model: model.ModelConfig
    canary: str
    opening: tuple[str, ...]  # calls made once, before the loop
    cycle: tuple[str, ...]  # calls of one closed-loop cycle, in order
    nz: int  # slices per study patient / of the tracker volume
    train_slices: int  # slices per train() call (one epoch)
    train_batch: int
    learning_rate: float
    segment_slices: int  # slices per evaluate() call
    late_occlusion: bool = False
    patients: int = 3  # train and held-out patients (held-out slices when late_occlusion)
    trace_cycles: int = 1  # cycles in a traced run, whose work is fixed
    setup_reps: int = 5


PLANS = {
    "study_train": Plan(
        "study_train", STUDY_MODEL, "study", (), ("train", "segment") + ("track",) * 4,
        nz=64, train_slices=64, train_batch=8, learning_rate=1e-3, segment_slices=64,
        trace_cycles=5,
    ),
    # one train() call of two 512 x 512 steps takes most of a run; each
    # evaluate() runs one batch of 4 slices. Tracker calls come in equal
    # bursts (before and after train(), after each evaluate()), so that
    # they sample the machine across the run, not at one moment of it
    "paper512": Plan(
        "paper512", model.scaled_config(512), "paper",
        ("track",) * 8 + ("train",) + ("track",) * 8, ("segment",) + ("track",) * 8,
        nz=64, train_slices=2, train_batch=1, learning_rate=1e-4, segment_slices=4,
        late_occlusion=True, patients=4, trace_cycles=2, setup_reps=3,
    ),
}


def tiny_plan() -> Plan:
    """A seconds-long plan for the benchmark's own tests."""
    return Plan(
        "tiny", model.tiny_config(), "tiny", ("train",), ("segment", "track"), nz=8,
        train_slices=8, train_batch=4, learning_rate=1e-3, segment_slices=8, patients=2,
        setup_reps=2,
    )


# -- correctness ---------------------------------------------------------------


class OutputChecks:
    """Checks every probability map and mask the package hands back.

    Wraps ``model_forward`` (probabilities finite, in [0, 1], right shape)
    and ``segment_volume`` (mask binary and shaped like the volume) where
    the package calls them; the cost is a few reductions per call.
    """

    def __init__(self):
        self.violations: list[str] = []
        self._patches = Patches()

    def _forward(self, fn):
        def model_forward(x, ps, mode="eval"):
            out = fn(x, ps, mode)
            p = out.data
            n, hw = np.shape(x)[0], ps.config.input_hw
            if p.shape != (n, hw, hw, 1):
                self.violations.append(f"probabilities shaped {p.shape}")
            elif not (np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0):
                self.violations.append("probabilities not finite or outside [0, 1]")
            return out

        return model_forward

    def _segment(self, fn):
        def segment_volume(ps, volume, *args, **kwargs):
            out = fn(ps, volume, *args, **kwargs)
            v = out.voxels
            if v.shape != volume.meta.shape or v.dtype != np.uint8 or v.max(initial=0) > 1:
                self.violations.append(f"mask shaped {v.shape} dtype {v.dtype} not binary")
            return out

        return segment_volume

    def install(self) -> "OutputChecks":
        self._patches.replace(model, "model_forward", self._forward)
        self._patches.replace(training, "model_forward", self._forward)
        self._patches.replace(training, "segment_volume", self._segment)
        return self

    def close(self):
        self._patches.undo()


def canary_outputs(name: str) -> dict:
    """Train losses, a probability map and a tracker result on the check seed."""
    c = CANARIES[name]
    hw = c.model.input_hw
    spec = phantom_spec(hw, c.nz, CHECK_SEED, CHECK_SEED)
    vol, mask = phantom.generate(spec)
    patient = sub_volume(vol, mask, 0, c.train_slices, "canary")
    tc = training.TrainConfig(learning_rate=c.learning_rate, batch_size=c.batch, epochs=1, seed=CHECK_SEED)
    _, log = training.train(c.model, tc, [patient])
    params = model.init_params(c.model, CHECK_SEED)
    window = HuWindow()
    batch = np.stack(
        [volume_io.to_model_input(volume_io.normalize_slice(vol.voxels[z], window)) for z in range(4)]
    )
    with autodiff.no_grad():
        probs = model.model_forward(batch, params, mode="eval").data[..., 0]
    track_cfg = tracker.TrackerConfig(*TRACK_WINDOW, seed_point=tuple(int(v) for v in spec.entry_xy))
    tracked, events = tracker.track_volume(vol, track_cfg)
    return {
        "train_losses": [float(v) for v in log.step_losses[:2]],
        "probs_shape": list(probs.shape),
        "probs_sub": [float(v) for v in probs[:, ::4, ::4].ravel()],
        "track_mask_sha256": hashlib.sha256(tracked.voxels.tobytes()).hexdigest(),
        "track_events": [[e.z, e.kind, e.detail] for e in events],
    }


def check_against_reference(name: str) -> list[str]:
    """Failures of the canary against reference.json, one per check (3 checks)."""
    ref = json.loads(REFERENCE_PATH.read_text())[name]
    got = canary_outputs(name)
    failures = []
    if not np.allclose(got["train_losses"], ref["train_losses"], rtol=LOSS_RTOL, atol=0.0):
        failures.append(f"canary train losses {got['train_losses']} != {ref['train_losses']}")
    diff = (
        np.abs(np.subtract(got["probs_sub"], ref["probs_sub"])).max()
        if got["probs_shape"] == ref["probs_shape"]
        else np.inf
    )
    if not diff <= PROB_ATOL:
        failures.append(f"canary probabilities differ by {diff:.3g} > {PROB_ATOL}")
    if (got["track_mask_sha256"], got["track_events"]) != (ref["track_mask_sha256"], ref["track_events"]):
        failures.append("canary tracker mask or events differ")
    return failures


# -- one run ---------------------------------------------------------------------


@dataclass
class Inputs:
    train: list  # (Volume, MaskVolume) per train() call
    held_out: list  # (Volume, MaskVolume) per evaluate() call
    track: list  # (Volume, PhantomSpec) per track_volume() call
    ckpt: checkpoint.Checkpoint
    roundtrip_ok: bool


def setup(plan: Plan, seed: int, workdir: Path) -> Inputs:
    """Generate, write and read back the phantoms; init, save and load the model."""
    hw = plan.model.input_hw
    n = 1 if plan.late_occlusion else 2 * plan.patients
    loaded = []
    for k in range(n):
        i = seed * 11 + k
        spec = phantom_spec(hw, plan.nz, i, noise_seed=1000 + i, late=plan.late_occlusion)
        vol, mask = phantom.generate(spec)
        d = workdir / spec.patient_id
        volume_io.save_volume(vol, d)
        volume_io.save_mask(mask, d)
        loaded.append((volume_io.load_volume(d), volume_io.load_mask(d), spec))
    params = model.init_params(plan.model, seed)
    window = HuWindow()
    meta = {"seed": seed, "epoch": 0, "hu_window": [window.lo, window.hi]}
    path = workdir / "model.ckpt"
    checkpoint.save_checkpoint(checkpoint.Checkpoint(plan.model, params, meta), path)
    ckpt = checkpoint.load_checkpoint(path)
    roundtrip_ok = ckpt.params.names() == params.names() and all(
        np.array_equal(ckpt.params.data(k), params.data(k)) for k in params.names()
    )
    if plan.late_occlusion:
        vol, mask, spec = loaded[0]
        b = spec.bifurcation_z
        train = [sub_volume(vol, mask, b - plan.train_slices, b, "train")]
        held_out = [
            sub_volume(vol, mask, z, z + plan.segment_slices, f"held_out{z}")
            for z in range(b, b + plan.patients * plan.segment_slices, plan.segment_slices)
        ]
    else:
        train = [(v, m) for v, m, _ in loaded[: plan.patients]]
        held_out = [(v, m) for v, m, _ in loaded[plan.patients :]]
    track = [(v, s) for v, _, s in loaded[plan.patients :] or loaded]
    return Inputs(train, held_out, track, ckpt, roundtrip_ok)


class Runner:
    """Times, checks and counts each public call of one run."""

    def __init__(self, plan: Plan, seed: int, inputs: Inputs, checks: OutputChecks, tracer: Tracer | None):
        self.plan, self.seed, self.inputs, self.checks, self.tracer = plan, seed, inputs, checks, tracer
        self.rates = {"train": [], "segment": [], "track": []}  # slices/s of each passing call
        self.kernel = SliceKernel(plan.model.input_hw, TRACK_WINDOW)
        self.track_kernel: list[tuple[float, float]] = []  # per track call: kernel s/slice, slowdown
        self.attempted = 0
        self.failures: list[str] = []
        self.coverage: list[tuple[str, float]] = []  # traced runs: (call, share inside layer spans)
        self._count = {"train": 0, "segment": 0, "track": 0}

    def _timed(self, name: str, fn):
        if self.tracer is None:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        probe_s = self.tracer.probe_s
        out, duration, self_time = self.tracer.call(name, fn)
        probe_s = self.tracer.probe_s - probe_s
        self.coverage.append((name, 1.0 - self_time / (duration - probe_s)))
        return out, duration

    def call(self, kind: str) -> None:
        k = self._count[kind]
        self._count[kind] += 1
        self.attempted += 1
        seen = len(self.checks.violations)
        try:
            slices, duration, problems = getattr(self, f"_{kind}")(k)
        except Exception as exc:  # a failed call is counted, and the run goes on
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return
        problems += self.checks.violations[seen:]
        if problems:
            self.failures.append(f"{kind}: {'; '.join(problems)}")
        else:
            self.rates[kind].append(slices / duration)

    def _train(self, k: int):
        plan = self.plan
        patient = self.inputs.train[k % len(self.inputs.train)]
        tc = training.TrainConfig(
            learning_rate=plan.learning_rate, batch_size=plan.train_batch, epochs=1, seed=self.seed + k
        )
        if self.tracer is not None:
            self.tracer.begin_train_call()
        (ckpt, log), duration = self._timed("training.train", lambda: training.train(plan.model, tc, [patient]))
        problems = []
        steps = -(-patient[0].meta.num_slices // plan.train_batch)
        if len(log.step_losses) != min(16, steps) or not all(np.isfinite(log.step_losses)):
            problems.append(f"train losses {log.step_losses}")
        if not all(np.isfinite(ckpt.params.data(n)).all() for n in ckpt.params.names()):
            problems.append("non-finite parameters after training")
        return patient[0].meta.num_slices * tc.epochs, duration, problems

    def _segment(self, k: int):
        patient = self.inputs.held_out[k % len(self.inputs.held_out)]
        report, duration = self._timed("training.evaluate", lambda: training.evaluate(self.inputs.ckpt, [patient]))
        problems = []
        if len(report.per_patient) != 1 or not (0.0 <= report.mean_dice <= 1.0 and 0.0 <= report.mean_iou <= 1.0):
            problems.append(f"report {report.mean_dice} {report.mean_iou}")
        return patient[0].meta.num_slices, duration, problems

    def _track(self, k: int):
        vol, spec = self.inputs.track[k % len(self.inputs.track)]
        cfg = tracker.TrackerConfig(*TRACK_WINDOW, seed_point=tuple(int(v) for v in spec.entry_xy))
        kernel_s, slowdown = self.kernel.slowdown()
        self.track_kernel.append((kernel_s, slowdown))
        (mask, events), duration = self._timed("tracker.track_volume", lambda: tracker.track_volume(vol, cfg))
        onset = spec.occlusion_z_range[0]
        lost = [e.z for e in events if e.kind == tracker.EVENT_LOST]
        problems = []
        if mask.voxels.shape != vol.meta.shape or mask.voxels.max(initial=0) > 1:
            problems.append("tracker mask shape or values")
        if lost != [onset] or mask.voxels[onset:].any():
            problems.append(f"tracker lost at {lost}, occlusion starts at {onset}")
        examined = lost[0] + 1 if lost else vol.meta.num_slices
        if self.tracer is not None:
            self.tracer.slices_examined += examined
        # at the reference machine's speed, as the slice kernel just before measured it
        return examined, duration / slowdown, problems


def fresh_import_s() -> float:
    """Wall time for a new interpreter to start and import the package."""
    src = Path(model.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import vesselseg.training, vesselseg.tracker"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def lower_quartile(values: list[float]) -> float:
    """Rate that 75% of calls reached (the 75th percentile of call time).

    This machine's speed switches between a common slow state and a
    rarer fast one; a median flips between them from run to run, the
    lower quartile does not.
    """
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run(plan: Plan, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object and the full report."""
    checks = OutputChecks().install()
    tracer = Tracer().install() if trace else None
    try:
        setup_times = []
        attempted, failures = 0, []
        for rep in range(plan.setup_reps):
            rep_dir = workdir / f"setup{rep}"
            start_s = fresh_import_s()
            t0 = time.perf_counter()
            inputs = setup(plan, seed, rep_dir)
            setup_times.append(start_s + time.perf_counter() - t0)
            shutil.rmtree(rep_dir, ignore_errors=True)
            attempted += 1
            if not inputs.roundtrip_ok:
                failures.append("checkpoint round trip is not bit-identical")

        runner = Runner(plan, seed, inputs, checks, tracer)
        started, cycles = time.perf_counter(), 0
        for kind in plan.opening:
            runner.call(kind)
        while cycles < (plan.trace_cycles if trace else 1) or (
            not trace and time.perf_counter() - started < seconds
        ):
            for kind in plan.cycle:
                runner.call(kind)
            cycles += 1
        peak_rss = rss_mib()
    finally:
        if tracer is not None:
            tracer.close()
        checks.close()

    try:
        canary_failures = check_against_reference(plan.canary)
    except Exception as exc:  # counted like any failed check
        canary_failures = [f"reference check: {type(exc).__name__}: {exc}"]
    attempted += runner.attempted + 3
    failures += runner.failures + canary_failures
    failed = len(failures)

    machine = machine_block()
    rates = {k: lower_quartile(v) for k, v in runner.rates.items()}
    # the tracker's rates are already scaled to one machine speed: the
    # median of them is steadier from run to run than the lower quartile
    track = runner.rates["track"]
    rates["track"] = statistics.median(track) if track else float("nan")
    if trace:
        metrics = tracer.metrics(machine["sgemm_peak_gflops"])
        metrics["trace.coverage_min"] = (min(c for _, c in runner.coverage), "frac")
        for kind in ("train", "segment", "track"):
            metrics[f"trace.{kind}_slices_per_s"] = (rates[kind], "slices/s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_slices_per_s": (rates["train"], "slices/s"),
            "segment_slices_per_s": (rates["segment"], "slices/s"),
            "track_slices_per_s": (rates["track"], "slices/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": plan.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "error_rate": failed / attempted,
        "failures": failures,
        "cycles": cycles,
        "setup_reps_s": setup_times,
        "per_call_slices_per_s": runner.rates,
        "per_track_call_kernel_s_and_slowdown": runner.track_kernel,
        "coverage_per_call": runner.coverage,
        "tape": tracer.tape if trace else None,
        "rss_per_step_mb": tracer.step_rss if trace else None,
        "machine": machine,
    }
    if trace:
        tracer.write_spans(workdir / "spans.jsonl")
    return {"result": result, "report": report}
