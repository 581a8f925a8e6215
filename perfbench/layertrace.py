"""Per-layer tracing of vesselseg from outside the package.

A Tracer replaces module attributes that the package looks up at call
time (every public op in ``vesselseg.autodiff``, the model's forward
stages, the loss, the optimizer step, dataset assembly, normalization,
the tracker's region step, phantom generation and checkpoint I/O) with
wrappers that record spans. Nothing in the package changes; ``close()``
puts every attribute back.

Each op wrapper also wraps the vjps in the returned tensor's ``_inputs``,
tagged with the op and with the model scope that was active when the op
ran, so backward time lands on the layer that built the graph node.
Scopes come from the model's own structure: ``encoder_forward`` opens
``encoder.stem``, ``residual_block`` opens ``encoder.layerN`` (read from
its parameter prefix), ``bridge_forward`` opens ``bridge.io`` and the
k-th ``transformer_layer`` call inside it ``bridge.layer{k}``, each
upsample in ``decoder_forward`` starts the next ``decoder.block{k}``, ops
directly in ``model_forward`` belong to ``head`` (this includes the
layout transposes at the model's input and output), and ops in
``bcej_loss`` to ``loss``.

A span's self time is its duration minus the time of the spans it
encloses. Spans stay in memory and are written out by ``write_spans``.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from vesselseg import autodiff, checkpoint, model, phantom, tracker, training
from vesselseg.autodiff import Tensor

# Ops reported on their own; every other autodiff op is grouped as "other".
OPS = (
    "conv2d",
    "batch_norm",
    "max_pool2d",
    "matmul",
    "layer_norm",
    "softmax",
    "gelu",
    "upsample_nearest2x",
)
MODEL_SCOPES = (
    ["encoder.stem"]
    + [f"encoder.layer{i}" for i in range(1, 5)]
    + [f"bridge.layer{i}" for i in range(4)]
    + ["bridge.io"]
    + [f"decoder.block{i}" for i in range(4)]
    + ["head"]
)
_NOT_OPS = {"no_grad", "as_tensor"}
MIB = 2**20


def autodiff_ops() -> list[str]:
    """Public functions of the autodiff module that build graph nodes."""
    return sorted(
        name
        for name, fn in vars(autodiff).items()
        if callable(fn)
        and getattr(fn, "__module__", None) == autodiff.__name__
        and not isinstance(fn, type)
        and not name.startswith("_")
        and name not in _NOT_OPS
    )


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Patches:
    """Module-attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class TimedVjp:
    """A vjp that records its run time against the op and scope that made it."""

    __slots__ = ("fn", "op", "scope", "flop", "tracer")

    def __init__(self, fn, op, scope, flop, tracer):
        self.fn, self.op, self.scope, self.flop, self.tracer = fn, op, scope, flop, tracer

    def __call__(self, g):
        tr = self.tracer
        t0 = tr._begin()
        try:
            return self.fn(g)
        finally:
            tr._end(t0, "vjp", self.op, self.scope)
            tr.conv_bwd_flop += self.flop


def _closure_values(fn):
    fn = fn.fn if isinstance(fn, TimedVjp) else fn
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            yield cell.cell_contents
        except ValueError:  # empty cell
            continue


def tape_size(root: Tensor) -> tuple[int, int]:
    """(bytes, nodes) the graph behind root holds.

    Walks every tensor reachable through ``_inputs`` and sums the unique
    ndarray buffers held in ``Tensor.data`` and in the vjp closure cells.
    A view counts as the buffer it keeps alive, once.
    """
    buffers: dict[int, int] = {}

    def add(a):
        if isinstance(a, Tensor):
            a = a.data
        if isinstance(a, (list, tuple)):
            for item in a:
                if isinstance(item, (np.ndarray, Tensor)):
                    add(item)
            return
        if not isinstance(a, np.ndarray):
            return
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a.nbytes

    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        add(node.data)
        for parent, fn in node._inputs:
            stack.append(parent)
            for value in _closure_values(fn):
                add(value)
    return sum(buffers.values()), len(seen)


class Tracer:
    """Spans around the package's layers, aggregated into per-layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []  # (kind, name, scope, start, duration, self_time)
        self._child = [0.0]
        self._scopes: list[list] = [["other", None, 0]]  # [scope, role, counter]
        self.conv_fwd_flop = 0.0
        self.conv_bwd_flop = 0.0
        self.conv_calls = 0
        self._cols_bytes = 0.0
        self.cols_peak_bytes = 0.0
        self.tape: list[tuple[int, int]] = []
        self.step_rss: list[list[float]] = []
        self.slices_examined = 0
        self.probe_s = 0.0  # time spent measuring the tape, excluded from coverage
        self._patches = Patches()

    # -- spans -------------------------------------------------------------
    def _begin(self) -> float:
        self._child.append(0.0)
        return time.perf_counter()

    def _end(self, t0: float, kind: str, name: str, scope: str) -> float:
        duration = time.perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += duration
        self.spans.append((kind, name, scope, t0, duration, duration - child))
        return duration

    def call(self, name: str, fn):
        """Run one timed public call in a span; returns (result, duration, self_time)."""
        t0 = self._begin()
        try:
            out = fn()
        finally:
            self._end(t0, "call", name, self._scopes[-1][0])
        return out, self.spans[-1][4], self.spans[-1][5]

    # -- wrappers ------------------------------------------------------------
    def _op(self, name: str, fn):
        tracer = self
        is_conv = name == "conv2d"

        def op(*args, **kwargs):
            frame = tracer._scopes[-1]
            if frame[1] == "decoder" and name == "upsample_nearest2x":
                frame[0] = f"decoder.block{frame[2]}"
                frame[2] += 1
            scope = frame[0]
            t0 = tracer._begin()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(t0, "op", name, scope)
            flop = tracer._conv_stats(args[0], args[1], out) if is_conv else {}
            if out._inputs:
                out._inputs = [
                    (p, v if isinstance(v, TimedVjp) else TimedVjp(v, name, scope, flop.get(id(p), 0.0), tracer))
                    for p, v in out._inputs
                ]
            return out

        return op

    def _conv_stats(self, x, weight, out) -> dict:
        w = weight.data if isinstance(weight, Tensor) else np.asarray(weight)
        n, c_out, oh, ow = out.data.shape
        k = w.shape[1] * w.shape[2] * w.shape[3]
        gemm = 2.0 * n * oh * ow * c_out * k
        self.conv_calls += 1
        self.conv_fwd_flop += gemm
        self._cols_bytes += n * oh * ow * k * out.data.itemsize
        # each of the input and weight vjps is one GEMM of the forward's size
        return {id(x): gemm, id(weight): gemm}

    def _stage(self, name: str, scope_of, fn):
        """Wrap a model or loss function: a span that opens a model scope."""
        tracer = self

        def stage(*args, **kwargs):
            scope, role = scope_of(*args, **kwargs)
            if role == "forward":
                tracer._cols_bytes = 0.0
            tracer._scopes.append([scope, role, 0])
            t0 = tracer._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(t0, "stage", name, scope)
                tracer._scopes.pop()
                if role == "forward":
                    tracer.cols_peak_bytes = max(tracer.cols_peak_bytes, tracer._cols_bytes)

        return stage

    def _layer(self, name: str, fn):
        """Wrap a non-model function: a plain span in the enclosing scope."""
        tracer = self

        def layer(*args, **kwargs):
            t0 = tracer._begin()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._end(t0, "layer", name, tracer._scopes[-1][0])
            if name == "training.adam_step" and tracer.step_rss:
                tracer.step_rss[-1].append(rss_mib())
            return out

        return layer

    def _backward(self, fn):
        tracer = self

        def backward(self_tensor, grad=None):
            t0 = tracer._begin()
            tracer.tape.append(tape_size(self_tensor))
            tracer.probe_s += tracer._end(t0, "probe", "tape_size", tracer._scopes[-1][0])
            t0 = tracer._begin()
            try:
                return fn(self_tensor, grad)
            finally:
                tracer._end(t0, "backward", "backward", tracer._scopes[-1][0])

        return backward

    def _bridge_layer(self, *args, **kwargs):
        frame = self._scopes[-1]
        k = frame[2]
        frame[2] += 1
        return f"bridge.layer{k}", "bridge"

    def install(self) -> "Tracer":
        p = self._patches
        for name in autodiff_ops():
            p.replace(autodiff, name, lambda f, name=name: self._op(name, f))
        p.replace(Tensor, "backward", self._backward)

        def stage(owner, attr, scope_of):
            label = f"{owner.__name__.split('.')[-1]}.{attr}"
            p.replace(owner, attr, lambda f: self._stage(label, scope_of, f))

        forward = lambda *a, **k: ("head", "forward")
        stage(model, "model_forward", forward)
        stage(training, "model_forward", forward)
        stage(model, "encoder_forward", lambda *a, **k: ("encoder.stem", "encoder"))
        stage(model, "residual_block", lambda x, ps, prefix, *a, **k: (".".join(prefix.split(".")[:2]), "block"))
        stage(model, "bridge_forward", lambda *a, **k: ("bridge.io", "bridge"))
        stage(model, "transformer_layer", self._bridge_layer)
        stage(model, "decoder_forward", lambda *a, **k: ("decoder.block0", "decoder"))
        stage(training, "bcej_loss", lambda *a, **k: ("loss", "loss"))

        for owner, attr, label in (
            (training, "adam_step", "training.adam_step"),
            (training, "build_slice_dataset", "training.build_slice_dataset"),
            (training, "init_params", "training.init_params"),
            (checkpoint, "init_params", "training.init_params"),
            (training, "normalize_slice", "volume_io.normalize"),
            (training, "to_model_input", "volume_io.normalize"),
            (model, "normalize_slice", "volume_io.normalize"),
            (model, "to_model_input", "volume_io.normalize"),
            (tracker, "connected_region", "tracker.connected_region"),
            (phantom, "generate", "phantom.generate"),
            (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
            (training, "save_checkpoint", "checkpoint.save_checkpoint"),
            (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
        ):
            p.replace(owner, attr, lambda f, label=label: self._layer(label, f))
        return self

    def close(self):
        self._patches.undo()

    def begin_train_call(self):
        self.step_rss.append([])

    # -- aggregation -----------------------------------------------------------
    def metrics(self, sgemm_peak_gflops: float) -> dict:
        fwd = defaultdict(float)
        bwd = defaultdict(float)
        scope_fwd = defaultdict(float)
        scope_bwd = defaultdict(float)
        inclusive = defaultdict(float)
        backward_s = 0.0
        for kind, name, scope, _, duration, self_time in self.spans:
            if kind == "op":
                fwd[name if name in OPS else "other"] += self_time
                scope_fwd[scope] += self_time
            elif kind == "vjp":
                bwd[name if name in OPS else "other"] += duration
                scope_bwd[scope] += duration
            elif kind == "stage":
                scope_fwd[scope] += self_time
            elif kind == "backward":
                backward_s += duration
            elif kind == "layer":
                inclusive[name] += duration
            elif kind == "call" and name == "tracker.track_volume":
                inclusive["tracker.walk"] += self_time
        vjp_total = sum(bwd.values())
        m = {}
        conv_s = fwd["conv2d"] + bwd["conv2d"]
        gflop = (self.conv_fwd_flop + self.conv_bwd_flop) / 1e9
        rate = gflop / conv_s if conv_s else 0.0
        m["autodiff.conv2d.calls"] = (self.conv_calls, "count")
        m["autodiff.conv2d.gflop"] = (gflop, "GFLOP")
        m["autodiff.conv2d.gflops_per_s"] = (rate, "GFLOP/s")
        m["autodiff.conv2d.peak_frac"] = (rate / sgemm_peak_gflops, "frac")
        m["autodiff.conv2d.cols_mb"] = (self.cols_peak_bytes / MIB, "MiB")
        for op in OPS + ("other",):
            m[f"autodiff.{op}.fwd_s"] = (fwd[op], "s")
            m[f"autodiff.{op}.bwd_s"] = (bwd[op], "s")
        m["autodiff.backward_s"] = (backward_s, "s")
        m["autodiff.backward.walk_s"] = (backward_s - vjp_total, "s")
        m["autodiff.tape_mb"] = (max((b for b, _ in self.tape), default=0) / MIB, "MiB")
        m["autodiff.tape_nodes"] = (max((n for _, n in self.tape), default=0), "count")
        for scope in MODEL_SCOPES:
            m[f"model.{scope}.fwd_s"] = (scope_fwd[scope], "s")
            m[f"model.{scope}.bwd_s"] = (scope_bwd[scope], "s")
        m["losses.bcej_loss.fwd_s"] = (scope_fwd["loss"], "s")
        m["losses.bcej_loss.bwd_s"] = (scope_bwd["loss"], "s")
        m["training.adam_step_s"] = (inclusive["training.adam_step"], "s")
        m["training.build_slice_dataset_s"] = (inclusive["training.build_slice_dataset"], "s")
        m["training.init_params_s"] = (inclusive["training.init_params"], "s")
        first = self.step_rss[0] if self.step_rss else []
        m["training.rss_step1_mb"] = (first[0] if len(first) > 0 else 0.0, "MiB")
        m["training.rss_step2_mb"] = (first[1] if len(first) > 1 else 0.0, "MiB")
        m["volume_io.normalize_s"] = (inclusive["volume_io.normalize"], "s")
        m["tracker.connected_region_s"] = (inclusive["tracker.connected_region"], "s")
        m["tracker.walk_s"] = (inclusive["tracker.walk"], "s")
        m["tracker.slices_examined"] = (self.slices_examined, "count")
        m["phantom.generate_s"] = (inclusive["phantom.generate"], "s")
        m["checkpoint.save_s"] = (inclusive["checkpoint.save_checkpoint"], "s")
        m["checkpoint.load_s"] = (inclusive["checkpoint.load_checkpoint"], "s")
        return m

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for kind, name, scope, start, duration, self_time in self.spans:
                fh.write(
                    json.dumps(
                        {"kind": kind, "name": name, "scope": scope, "start": start,
                         "dur": duration, "self": self_time}
                    )
                    + "\n"
                )
