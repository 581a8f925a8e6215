"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload study_train --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ./src and
nowhere else, so the benchmark exits non-zero, with no result line, in a tree
that lacks it. BLAS threads are set to the cores this process may use,
overriding the caller's environment.
The last line of standard output is the result object; the line before it
is the full report (machine block, error rate, per-call samples), which
is also written to .perfbench_out/<workload>-seed<n>-trace<t>/report.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd().resolve()
HERE = Path(__file__).resolve().parent

# every run uses one BLAS thread per core it may use, whatever the caller set
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    try:
        import vesselseg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import vesselseg from {src}: {exc}")
    if Path(vesselseg.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: vesselseg came from {vesselseg.__file__}, not {src}")
    import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_package()
    if args.workload not in workloads.PLANS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(workloads.PLANS)}")

    outdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    out = workloads.run(workloads.PLANS[args.workload], args.seed, args.seconds, bool(args.trace), outdir)
    result, report = out["result"], out["report"]
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(json.dumps(report), file=sys.stderr)
        sys.exit(f"perfbench: no successful call produced {bad}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'error_rate':40s} {report['error_rate']:14.6g} failed/attempted", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
