"""The benchmark's own fast checks, on a tiny model in seconds.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from layertrace import Tracer, tape_size  # noqa: E402
from vesselseg import autodiff as ad  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _tiny(tmp_path, trace: bool) -> dict:
    return workloads.run(workloads.tiny_plan(), seed=3, seconds=0.0, trace=trace, workdir=tmp_path)


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    out = _tiny(tmp_path, trace=False)
    result = out["result"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert out["report"]["error_rate"] == 0.0


def test_every_per_layer_metric_is_emitted_and_self_times_cover_each_call(tmp_path):
    out = _tiny(tmp_path, trace=True)
    result = out["result"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0
    coverage = dict(out["report"]["coverage_per_call"])
    assert set(coverage) == {"training.train", "training.evaluate", "tracker.track_volume"}
    assert min(coverage["training.train"], coverage["training.evaluate"]) >= 0.9, coverage
    # track_volume's per-slice loop has no function of its own to wrap; its
    # time is reported as tracker.walk_s, and its coverage as measured
    assert 0.0 < coverage["tracker.track_volume"] < 1.0, coverage
    assert result["metrics"]["trace.coverage_min"]["value"] == min(coverage.values())
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_tape_probe_is_exact_on_a_hand_built_graph():
    x = ad.Tensor(np.ones((10, 10), dtype=np.float32), requires_grad=True)  # 400 B
    y = ad.relu(x)  # 400 B of output; the vjp keeps a 100 B bool mask
    t = ad.transpose(y, (1, 0))  # a view of y: no new buffer; the vjp keeps 2 int64 axes
    z = ad.mul(t, 2.0)  # 400 B; the vjp keeps only the Python scalar
    loss = ad.tsum(z)  # 4 B; the vjp keeps z, already counted
    expected = (400 + 400 + 100 + 16 + 400 + 4, 5)
    assert tape_size(loss) == expected

    tracer = Tracer().install()
    try:
        y = ad.relu(x)
        loss = ad.tsum(ad.mul(ad.transpose(y, (1, 0)), 2.0))
        assert tape_size(loss) == expected
        loss.backward()
    finally:
        tracer.close()
    assert tracer.tape == [expected]


def test_perturbed_conv2d_trips_the_correctness_gate(tmp_path, monkeypatch):
    original = ad.conv2d

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        out.data = out.data * np.float32(1.01)
        return out

    monkeypatch.setattr(ad, "conv2d", perturbed)
    out = _tiny(tmp_path, trace=False)
    assert out["result"]["failed"] > 0 and not out["result"]["correct"]
    assert out["report"]["error_rate"] > 0
    assert any("canary" in f for f in out["report"]["failures"])


def test_exits_nonzero_without_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "study_train", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
